package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"flexio/internal/apps/gts"
	"flexio/internal/apps/s3d"
	"flexio/internal/core"
	"flexio/internal/dcplugin"
	"flexio/internal/evpath"
	"flexio/internal/ndarray"
)

// Every workload couples nWriters writer ranks to nReaders reader ranks
// in one process: the box this benchmark is sized for has two cores.
const (
	nWriters = 2
	nReaders = 2
	// probesPerVar is how many positions of each variable carry the step
	// number, so every operation proves it read this step's bytes.
	probesPerVar = 8
)

// spec is one placement workload: which application shape is written and
// which transport carries it.
type spec struct {
	name      string
	why       string
	transport evpath.TransportKind
	// warmup steps run untimed before the window opens, so plan caches,
	// buffer pools and socket buffers are in steady state.
	warmup int64
	// particles > 0 selects the GTS shape (two process-group variables of
	// that many particles per writer rank); 0 selects the S3D_Box shape.
	particles int
	// query deploys the GTS velocity range query into the writers.
	query bool
}

// The GTS sizes are scaled down from the paper's 110 MB/rank so that one
// process group plus its header fits evpath.DefaultMaxFrame (64 MiB)
// without touching the cap.
var specs = []spec{
	{
		name:      "s3d_shm",
		why:       "helper-core placement: 88 strided 40 KB pieces per step by reference, so core, ndarray and meta encode do the work and the transport almost none",
		transport: evpath.ShmTransport, warmup: 20,
	},
	{
		name:      "s3d_tcp",
		why:       "staging placement, same shape as s3d_shm over loopback tcp: the difference is the wire, paid per frame (92 small frames per step)",
		transport: evpath.TCPTransport, warmup: 20,
	},
	{
		name:      "gts_tcp",
		why:       "staging placement, four 16 MB process-group frames per step: bypasses ndarray, so encode copy, frame copy, socket and receive allocation dominate",
		transport: evpath.TCPTransport, warmup: 5, particles: 16_000_000 / (gts.NumAttrs * 8),
	},
	{
		name:      "gts_query_shm",
		why:       "helper-core placement with the range-query plug-in run at the source: the plug-in VM is most of the step, transport and ndarray do little",
		transport: evpath.ShmTransport, warmup: 5, particles: 2_000_000 / (gts.NumAttrs * 8), query: true,
	},
}

// processGroups reports whether the workload writes the GTS shape (opaque
// per-rank process groups) and not the S3D_Box shape (global arrays).
func (sp *spec) processGroups() bool { return sp.particles > 0 }

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// variable is one stream variable's generated input and its oracle.
type variable struct {
	name string
	// Writer side: what rank w hands to Write, and the byte offsets in
	// src[w] that are overwritten with the step number before each Write.
	meta   [nWriters]core.VarMeta
	src    [nWriters][]byte
	stamps [nWriters][]int
	// Reader side: the bytes rank r must receive, computed without the
	// middleware, and the byte offsets in expect[r] where the stamps land.
	box    [nReaders]ndarray.Box // S3D selection; zero for process groups
	expect [nReaders][]byte
	probes [nReaders][]int
}

// inputs is everything the program under test is fed for one workload,
// generated from the seed before any timing.
type inputs struct {
	spec *spec
	vars []*variable
	// stepBytes is what all writer ranks hand to Writer.Write per step.
	stepBytes int64
	plugin    dcplugin.Plugin // query workloads only
}

func generate(sp *spec, seed int64) (*inputs, error) {
	in := &inputs{spec: sp}
	var err error
	if sp.processGroups() {
		err = in.generateGTS(seed)
	} else {
		err = in.generateS3D(seed)
	}
	if err != nil {
		return nil, err
	}
	for _, v := range in.vars {
		for w := range v.src {
			in.stepBytes += int64(len(v.src[w]))
		}
	}
	return in, nil
}

// generateS3D builds the S3D_Box shape: NumSpecies float64 arrays over a
// global 42x22x22 box, writers block-split on dim 0 and readers on dim 2,
// so every writer-reader pair exchanges one strided 21x22x11 piece per
// species.
func (in *inputs) generateS3D(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	shape := []int64{s3d.LocalShape[0] * nWriters, s3d.LocalShape[1], s3d.LocalShape[2]}
	wdec, err := ndarray.BlockDecompose(shape, []int{nWriters, 1, 1})
	if err != nil {
		return err
	}
	rdec, err := ndarray.BlockDecompose(shape, []int{1, 1, nReaders})
	if err != nil {
		return err
	}
	const elem = 8
	for i := 0; i < s3d.NumSpecies; i++ {
		v := &variable{name: s3d.SpeciesName(i)}
		for w, box := range wdec.Boxes {
			v.meta[w] = core.VarMeta{
				Name: v.name, Kind: core.GlobalArrayVar, ElemSize: elem,
				GlobalShape: shape, Box: box,
			}
			v.src[w] = make([]byte, box.NumElements()*elem)
			for off := 0; off < len(v.src[w]); off += elem {
				binary.LittleEndian.PutUint64(v.src[w][off:], math.Float64bits(rng.Float64()))
			}
		}
		for r, box := range rdec.Boxes {
			v.box[r] = box
			v.expect[r] = make([]byte, box.NumElements()*elem)
			for w, wbox := range wdec.Boxes {
				ov, ok := wbox.Intersect(box)
				if !ok {
					continue
				}
				if err := ndarray.CopyRegion(v.expect[r], v.src[w], box, wbox, ov, elem); err != nil {
					return err
				}
			}
		}
		// Probe p lands in reader p%nReaders' box at a seeded point; the
		// writer that owns the point stamps it.
		pt := make([]int64, len(shape))
		for p := 0; p < probesPerVar; p++ {
			r := p % nReaders
			for d := range pt {
				pt[d] = v.box[r].Lo[d] + rng.Int63n(v.box[r].Hi[d]-v.box[r].Lo[d])
			}
			v.probes[r] = append(v.probes[r], int(v.box[r].Offset(pt))*elem)
			for w, wbox := range wdec.Boxes {
				if wbox.Contains(pt) {
					v.stamps[w] = append(v.stamps[w], int(wbox.Offset(pt))*elem)
				}
			}
		}
		in.vars = append(in.vars, v)
	}
	return nil
}

// generateGTS builds the GTS shape: the zion and electron particle arrays
// as process groups, reader r consuming writer r's groups (the rank counts
// are equal). With the query
// deployed the oracle is gts.RangeQuery of the writer's buffer, and the
// stamps go into the id slot of particles known to pass it.
func (in *inputs) generateGTS(seed int64) error {
	sp := in.spec
	rng := rand.New(rand.NewSource(seed))
	if sp.query {
		in.plugin = dcplugin.SelectRangePlugin(gts.NumAttrs, gts.AttrVPar, gts.DefaultQueryLo, gts.DefaultQueryHi)
	}
	idSlot := func(particle int) int { return (particle*gts.NumAttrs + gts.AttrID) * 8 }
	for _, species := range []gts.Species{gts.Zion, gts.Electron} {
		v := &variable{name: species.String()}
		for w := 0; w < nWriters; w++ {
			// gts.Generate is deterministic in its step argument; the
			// benchmark seed takes that place.
			particles := gts.Generate(species, w, int(seed), sp.particles)
			v.meta[w] = core.VarMeta{Name: v.name, Kind: core.ProcessGroupVar, ElemSize: 8}
			v.src[w] = dcplugin.FloatsToBytes(particles)
			r := w
			if !sp.query {
				v.expect[r] = bytes.Clone(v.src[w])
				for p := 0; p < probesPerVar; p++ {
					off := idSlot(rng.Intn(sp.particles))
					v.stamps[w] = append(v.stamps[w], off)
					v.probes[r] = append(v.probes[r], off)
				}
				continue
			}
			selected, err := gts.RangeQuery(particles, gts.AttrVPar, gts.DefaultQueryLo, gts.DefaultQueryHi)
			if err != nil {
				return err
			}
			v.expect[r] = dcplugin.FloatsToBytes(selected)
			var passing []int // particle indices, in output order
			for i := 0; i < sp.particles; i++ {
				if vp := particles[i*gts.NumAttrs+gts.AttrVPar]; vp >= gts.DefaultQueryLo && vp < gts.DefaultQueryHi {
					passing = append(passing, i)
				}
			}
			if len(passing)*gts.NumAttrs != len(selected) || len(passing) == 0 {
				return fmt.Errorf("%s: query oracle selected %d values for %d passing particles", v.name, len(selected), len(passing))
			}
			for p := 0; p < probesPerVar; p++ {
				k := rng.Intn(len(passing))
				v.stamps[w] = append(v.stamps[w], idSlot(passing[k]))
				v.probes[r] = append(v.probes[r], idSlot(k))
			}
		}
		in.vars = append(in.vars, v)
	}
	return nil
}

// stampValue is never the zero a missing piece would read as.
func stampValue(step int64) uint64 { return math.Float64bits(float64(step) + 0.5) }

// stamp writes the step number at writer w's probe positions.
func (v *variable) stamp(w int, step int64) {
	for _, off := range v.stamps[w] {
		binary.LittleEndian.PutUint64(v.src[w][off:], stampValue(step))
	}
}

// verify checks what reader r was delivered for step: length and the
// stamped probes on every operation, every byte against the oracle when
// deep is set.
func (v *variable) verify(r int, step int64, got []byte, deep bool) error {
	want := v.expect[r]
	if len(got) != len(want) {
		return fmt.Errorf("%s reader %d step %d: %d bytes, want %d", v.name, r, step, len(got), len(want))
	}
	for _, off := range v.probes[r] {
		if s := binary.LittleEndian.Uint64(got[off:]); s != stampValue(step) {
			return fmt.Errorf("%s reader %d step %d: probe at byte %d reads step %v", v.name, r, step, off, math.Float64frombits(s)-0.5)
		}
	}
	if !deep {
		return nil
	}
	for _, off := range v.probes[r] {
		binary.LittleEndian.PutUint64(want[off:], stampValue(step))
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s reader %d step %d: delivered bytes differ from the oracle", v.name, r, step)
	}
	return nil
}
