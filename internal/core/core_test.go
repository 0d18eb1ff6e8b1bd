package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flexio/internal/dcplugin"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/machine"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
	"flexio/internal/rdma"
)

type harness struct {
	net *evpath.Net
	dir *directory.Mem
}

func newHarness() *harness {
	return &harness{
		net: evpath.NewNet(rdma.NewFabric(machine.Titan(8).Net)),
		dir: directory.NewMem(),
	}
}

// fillArray writes a recognizable pattern: element at global offset o has
// value o (as float64 bytes).
func fillArrayBytes(box, global ndarray.Box) []byte {
	buf := make([]byte, box.NumElements()*8)
	nd := box.NDims()
	pt := make([]int64, nd)
	copy(pt, box.Lo)
	strides := box.Strides()
	gStrides := global.Strides()
	for {
		var off, goff int64
		for d := 0; d < nd; d++ {
			off += (pt[d] - box.Lo[d]) * strides[d]
			goff += pt[d] * gStrides[d]
		}
		binary.LittleEndian.PutUint64(buf[off*8:], uint64(goff))
		d := nd - 1
		for ; d >= 0; d-- {
			pt[d]++
			if pt[d] < box.Hi[d] {
				break
			}
			pt[d] = box.Lo[d]
		}
		if d < 0 {
			return buf
		}
	}
}

// runMxNSplit moves a 2-D global array from nw writers to nr readers over
// the given options for `steps` timesteps and verifies every reader gets
// exactly the right bytes. Writer and reader goroutines use separate wait
// groups because readers only see EOS after the writer group closes.
func runMxNSplit(t *testing.T, nw, nr int, opts Options, steps int) (wmon, rmon monitor.Report) {
	t.Helper()
	h := newHarness()
	shape := []int64{24, 24}
	global := ndarray.BoxFromShape(shape)
	wdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nw, 2))
	rdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nr, 2))
	wm := monitor.New("writers")
	rm := monitor.New("readers")
	stream := fmt.Sprintf("mxn-%d-%d-%d-%v-%v", nw, nr, opts.Caching, opts.Batching, opts.Async)

	wg, err := NewWriterGroup(h.net, h.dir, stream, nw, opts, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, stream, nr, rm)
	if err != nil {
		t.Fatal(err)
	}

	var writers, readers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wg.Writer(w)
			for s := 0; s < steps; s++ {
				if err := wr.BeginStep(int64(s)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				meta := VarMeta{
					Name: "field", Kind: GlobalArrayVar, ElemSize: 8,
					GlobalShape: shape, Box: wdec.Boxes[w],
				}
				if err := wr.Write(meta, fillArrayBytes(wdec.Boxes[w], global)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if err := wr.EndStep(); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	for r := 0; r < nr; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			rd := rg.Reader(r)
			if err := rd.SelectArray("field", rdec.Boxes[r]); err != nil {
				t.Errorf("reader %d: %v", r, err)
				return
			}
			for s := 0; s < steps; s++ {
				step, ok := rd.BeginStep()
				if !ok || step != int64(s) {
					t.Errorf("reader %d: step %d ok=%v, want %d", r, step, ok, s)
					return
				}
				data, box, err := rd.ReadArray("field")
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if !bytes.Equal(data, fillArrayBytes(box, global)) {
					t.Errorf("reader %d step %d: data mismatch", r, s)
					return
				}
				rd.EndStep()
			}
			if _, ok := rd.BeginStep(); ok {
				t.Errorf("reader %d: expected EOS", r)
			}
		}()
	}
	writers.Wait()
	if err := wg.Close(); err != nil {
		t.Fatalf("writer close: %v", err)
	}
	readers.Wait()
	rg.Close()
	requirePayloadPoolDrained(t, wg)
	return wm.Snapshot(), rm.Snapshot()
}

// requirePayloadPoolDrained asserts that a closed writer group has every
// pooled payload back. BufferPool.Put keys its accounting on cap(buf), so
// this only reaches zero if what was returned is always the whole buffer,
// header room included — by the flush (deposits), after a copying send or
// by a reader's release (packed pieces).
func requirePayloadPoolDrained(t *testing.T, wg *WriterGroup) {
	t.Helper()
	if st := wg.PayloadPoolStats(); st.BytesInUse != 0 {
		t.Errorf("payload pool has %d bytes checked out after Close (stats %+v)", st.BytesInUse, st)
	}
}

func TestMxNBasic(t *testing.T) {
	runMxNSplit(t, 4, 2, Options{}, 3)
}

func TestMxNPaperShape(t *testing.T) {
	// Figure 3: 9 writers -> 2 readers.
	runMxNSplit(t, 9, 2, Options{}, 2)
}

func TestMxNReadersExceedWriters(t *testing.T) {
	runMxNSplit(t, 2, 6, Options{}, 2)
}

func TestMxNSingleToSingle(t *testing.T) {
	runMxNSplit(t, 1, 1, Options{}, 4)
}

func TestMxNAsync(t *testing.T) {
	runMxNSplit(t, 4, 2, Options{Async: true}, 5)
}

func TestMxNBatching(t *testing.T) {
	runMxNSplit(t, 4, 2, Options{Batching: true}, 3)
}

func TestMxNShmTransport(t *testing.T) {
	opts := Options{Transport: func(w, r int) (evpath.TransportKind, int, int) {
		return evpath.ShmTransport, 0, 0
	}}
	runMxNSplit(t, 3, 2, opts, 3)
}

func TestMxNRDMATransport(t *testing.T) {
	opts := Options{Transport: func(w, r int) (evpath.TransportKind, int, int) {
		return evpath.RDMATransport, w % 4, 4 + r%4
	}}
	runMxNSplit(t, 3, 2, opts, 3)
}

func TestMxNMixedTransports(t *testing.T) {
	// Helper-core style: reader r co-located with writer w uses shm,
	// others use RDMA.
	opts := Options{Transport: func(w, r int) (evpath.TransportKind, int, int) {
		if w%2 == r%2 {
			return evpath.ShmTransport, w % 4, w % 4
		}
		return evpath.RDMATransport, w % 4, 4 + r%4
	}}
	runMxNSplit(t, 4, 2, opts, 3)
}

func TestCachingAllSkipsHandshakes(t *testing.T) {
	const steps = 6
	wNo, _ := runMxNSplit(t, 4, 2, Options{Caching: NoCaching}, steps)
	wAll, _ := runMxNSplit(t, 4, 2, Options{Caching: CachingAll}, steps)
	noDist := wNo.Counts["handshake.writer-dist.sent"]
	allDist := wAll.Counts["handshake.writer-dist.sent"]
	if noDist != steps {
		t.Fatalf("NO_CACHING sent %d writer dists, want %d (one per step)", noDist, steps)
	}
	if allDist != 1 {
		t.Fatalf("CACHING_ALL sent %d writer dists, want 1", allDist)
	}
}

func TestBatchingReducesMessages(t *testing.T) {
	// With multiple variables per step, batching collapses data messages.
	h := newHarness()
	shape := []int64{16}
	wdec, _ := ndarray.BlockDecompose(shape, []int{2})
	const nvars = 5

	run := func(batch bool) int64 {
		wm := monitor.New("w")
		stream := fmt.Sprintf("batch-%v", batch)
		wg, err := NewWriterGroup(h.net, h.dir, stream, 2, Options{Batching: batch}, wm)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := NewReaderGroup(h.net, h.dir, stream, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var writers sync.WaitGroup
		for w := 0; w < 2; w++ {
			w := w
			writers.Add(1)
			go func() {
				defer writers.Done()
				wr := wg.Writer(w)
				wr.BeginStep(0)
				for v := 0; v < nvars; v++ {
					meta := VarMeta{
						Name: fmt.Sprintf("v%d", v), Kind: GlobalArrayVar,
						ElemSize: 8, GlobalShape: shape, Box: wdec.Boxes[w],
					}
					wr.Write(meta, make([]byte, wdec.Boxes[w].NumElements()*8))
				}
				wr.EndStep()
			}()
		}
		rd := rg.Reader(0)
		for v := 0; v < nvars; v++ {
			rd.SelectArray(fmt.Sprintf("v%d", v), ndarray.BoxFromShape(shape))
		}
		if _, ok := rd.BeginStep(); !ok {
			t.Fatal("no step")
		}
		for v := 0; v < nvars; v++ {
			if _, _, err := rd.ReadArray(fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
		rd.EndStep()
		writers.Wait()
		wg.Close()
		rg.Close()
		return wm.Snapshot().Counts["data.msgs"]
	}

	plain := run(false)
	batched := run(true)
	if batched >= plain {
		t.Fatalf("batching did not reduce messages: %d vs %d", batched, plain)
	}
}

func TestScalarBroadcast(t *testing.T) {
	h := newHarness()
	wg, err := NewWriterGroup(h.net, h.dir, "scalars", 2, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "scalars", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wg.Writer(w)
			wr.BeginStep(0)
			if w == 0 {
				val := make([]byte, 8)
				binary.LittleEndian.PutUint64(val, 4242)
				wr.Write(VarMeta{Name: "time", Kind: ScalarVar, ElemSize: 8}, val)
			}
			wr.EndStep()
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			rd := rg.Reader(r)
			if _, ok := rd.BeginStep(); !ok {
				t.Errorf("reader %d: no step", r)
				return
			}
			val, err := rd.ReadScalar("time")
			if err != nil {
				t.Errorf("reader %d: %v", r, err)
				return
			}
			if binary.LittleEndian.Uint64(val) != 4242 {
				t.Errorf("reader %d: wrong scalar", r)
			}
			rd.EndStep()
		}()
	}
	writers.Wait()
	wg.Close()
	readers.Wait()
	rg.Close()
}

func TestProcessGroupPattern(t *testing.T) {
	// GTS-style: each reader claims a disjoint set of writer ranks.
	const nw, nr = 4, 2
	h := newHarness()
	wg, err := NewWriterGroup(h.net, h.dir, "pg", nw, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "pg", nr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wg.Writer(w)
			wr.BeginStep(0)
			payload := bytes.Repeat([]byte{byte(w + 1)}, 1000)
			wr.Write(VarMeta{Name: "particles", Kind: ProcessGroupVar, ElemSize: 1}, payload)
			wr.EndStep()
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < nr; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			rd := rg.Reader(r)
			claimed := []int{r * 2, r*2 + 1}
			rd.SelectProcessGroups(claimed)
			if _, ok := rd.BeginStep(); !ok {
				t.Errorf("reader %d: no step", r)
				return
			}
			groups, err := rd.ReadProcessGroups("particles")
			if err != nil {
				t.Errorf("reader %d: %v", r, err)
				return
			}
			if len(groups) != 2 {
				t.Errorf("reader %d: got %d groups, want 2", r, len(groups))
				return
			}
			for _, w := range claimed {
				g, ok := groups[w]
				if !ok || len(g) != 1000 || g[0] != byte(w+1) {
					t.Errorf("reader %d: bad group from writer %d", r, w)
				}
			}
			rd.EndStep()
		}()
	}
	writers.Wait()
	wg.Close()
	readers.Wait()
	rg.Close()
}

func TestReaderPluginFiltering(t *testing.T) {
	// Install a sampling plug-in on the reader side and verify the
	// delivered PG payload shrinks.
	h := newHarness()
	wg, err := NewWriterGroup(h.net, h.dir, "plug", 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "plug", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	filter, err := dcplugin.SamplePlugin(4).Filter()
	if err != nil {
		t.Fatal(err)
	}
	rg.InstallPlugin(filter)

	floats := make([]float64, 100)
	for i := range floats {
		floats[i] = float64(i)
	}
	go func() {
		wr := wg.Writer(0)
		wr.BeginStep(0)
		wr.Write(VarMeta{Name: "p", Kind: ProcessGroupVar, ElemSize: 8},
			dcplugin.FloatsToBytes(floats))
		wr.EndStep()
		wg.Close()
	}()
	rd := rg.Reader(0)
	rd.SelectProcessGroups([]int{0})
	if _, ok := rd.BeginStep(); !ok {
		t.Fatal("no step")
	}
	groups, err := rd.ReadProcessGroups("p")
	if err != nil {
		t.Fatal(err)
	}
	got := dcplugin.BytesToFloats(groups[0])
	if len(got) != 25 {
		t.Fatalf("sampled %d elements, want 25", len(got))
	}
	if got[1] != 4 {
		t.Fatalf("sample content wrong: %v", got[:3])
	}
	rd.EndStep()
	rg.Close()
}

func TestWriterDistributionVisibleToReader(t *testing.T) {
	_, _ = runMxNSplit(t, 4, 2, Options{}, 1)
	// Covered implicitly; here verify the accessor on a fresh run.
	h := newHarness()
	shape := []int64{8}
	wdec, _ := ndarray.BlockDecompose(shape, []int{2})
	wg, _ := NewWriterGroup(h.net, h.dir, "dist", 2, Options{}, nil)
	rg, _ := NewReaderGroup(h.net, h.dir, "dist", 1, nil)
	go func() {
		for w := 0; w < 2; w++ {
			w := w
			go func() {
				wr := wg.Writer(w)
				wr.BeginStep(0)
				wr.Write(VarMeta{Name: "x", Kind: GlobalArrayVar, ElemSize: 8,
					GlobalShape: shape, Box: wdec.Boxes[w]}, make([]byte, wdec.Boxes[w].NumElements()*8))
				wr.EndStep()
			}()
		}
	}()
	rd := rg.Reader(0)
	rd.SelectArray("x", ndarray.BoxFromShape(shape))
	if _, ok := rd.BeginStep(); !ok {
		t.Fatal("no step")
	}
	boxes, ok := rg.WriterDistribution("x")
	if !ok || len(boxes) != 2 {
		t.Fatalf("writer distribution: %v, %v", boxes, ok)
	}
	if !boxes[0].Equal(wdec.Boxes[0]) {
		t.Fatalf("box 0 = %v, want %v", boxes[0], wdec.Boxes[0])
	}
	rd.EndStep()
	wg.Close()
	rg.Close()
}

func TestWriteErrors(t *testing.T) {
	h := newHarness()
	wg, err := NewWriterGroup(h.net, h.dir, "errs", 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wg.Close()
	wr := wg.Writer(0)
	if err := wr.Write(VarMeta{Name: "x", Kind: ScalarVar, ElemSize: 8}, make([]byte, 8)); err == nil {
		t.Error("Write before BeginStep must fail")
	}
	if err := wr.EndStep(); err == nil {
		t.Error("EndStep before BeginStep must fail")
	}
	wr.BeginStep(0)
	if err := wr.Write(VarMeta{Name: "", Kind: ScalarVar, ElemSize: 8}, make([]byte, 8)); err == nil {
		t.Error("nameless variable must fail")
	}
	if err := wr.Write(VarMeta{Name: "x", Kind: ScalarVar, ElemSize: 8}, make([]byte, 4)); err == nil {
		t.Error("short scalar must fail")
	}
	shape := []int64{4}
	if err := wr.Write(VarMeta{Name: "a", Kind: GlobalArrayVar, ElemSize: 8,
		GlobalShape: shape, Box: ndarray.NewBox([]int64{0}, []int64{9})}, make([]byte, 72)); err == nil {
		t.Error("out-of-global box must fail")
	}
	if err := wr.Write(VarMeta{Name: "a", Kind: GlobalArrayVar, ElemSize: 8,
		GlobalShape: shape, Box: ndarray.NewBox([]int64{0}, []int64{2})}, make([]byte, 8)); err == nil {
		t.Error("byte count mismatch must fail")
	}
}

func TestReaderErrors(t *testing.T) {
	h := newHarness()
	wg, _ := NewWriterGroup(h.net, h.dir, "rerrs", 1, Options{}, nil)
	rg, err := NewReaderGroup(h.net, h.dir, "rerrs", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd := rg.Reader(0)
	if _, _, err := rd.ReadArray("x"); err == nil {
		t.Error("ReadArray outside step must fail")
	}
	if _, err := rd.ReadScalar("x"); err == nil {
		t.Error("ReadScalar outside step must fail")
	}
	if err := rd.EndStep(); err == nil {
		t.Error("EndStep outside step must fail")
	}
	wg.Close()
	rg.Close()
}

func TestReaderGroupUnknownStream(t *testing.T) {
	h := newHarness()
	d := directory.NewMem()
	// Short-circuit the 30s wait by registering then unregistering is not
	// possible; instead use a never-registered name with a tiny custom
	// timeout via the underlying API — here just check Mem semantics.
	if _, err := d.Lookup("ghost"); err == nil {
		t.Fatal("ghost stream must not resolve")
	}
	_ = h
}

func TestBoxCodecRoundTrip(t *testing.T) {
	boxes := []ndarray.Box{
		ndarray.NewBox([]int64{0, 0}, []int64{3, 4}),
		ndarray.NewBox([]int64{3, 0}, []int64{6, 4}),
	}
	flat := encodeBoxes(boxes, 2)
	got, err := decodeBoxes(flat, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range boxes {
		if !got[i].Equal(boxes[i]) {
			t.Fatalf("box %d: %v != %v", i, got[i], boxes[i])
		}
	}
	if _, err := decodeBoxes(flat, 2, 3); err == nil {
		t.Fatal("wrong count must error")
	}
	if _, err := decodeBoxes(flat, 0, 2); err == nil {
		t.Fatal("zero rank must error")
	}
}

func TestCachingLevelStrings(t *testing.T) {
	if NoCaching.String() != "NO_CACHING" || CachingAll.String() != "CACHING_ALL" ||
		CachingLocal.String() != "CACHING_LOCAL" {
		t.Fatal("caching level names wrong")
	}
	if VarKind(99).String() == "" || CachingLevel(99).String() == "" {
		t.Fatal("unknown values must stringify")
	}
}

// TestMxNRandomizedProperty drives the full stream protocol over random
// writer/reader counts, shapes, step counts and option combinations —
// the end-to-end correctness property of the runtime.
func TestMxNRandomizedProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep")
	}
	seeds := []int64{1, 7, 42, 1234, 99991}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nw := 1 + rng.Intn(6)
			nr := 1 + rng.Intn(4)
			steps := 1 + rng.Intn(4)
			opts := Options{
				Caching:  CachingLevel(rng.Intn(3)),
				Batching: rng.Intn(2) == 0,
				Async:    rng.Intn(2) == 0,
			}
			switch rng.Intn(3) {
			case 1:
				opts.Transport = func(w, r int) (evpath.TransportKind, int, int) {
					return evpath.ShmTransport, 0, 0
				}
			case 2:
				opts.Transport = func(w, r int) (evpath.TransportKind, int, int) {
					return evpath.RDMATransport, w % 4, 4 + r%4
				}
			}
			runMxNSplit(t, nw, nr, opts, steps)
		})
	}
}

func TestGroupConstructorValidation(t *testing.T) {
	h := newHarness()
	if _, err := NewWriterGroup(h.net, h.dir, "zero", 0, Options{}, nil); err == nil {
		t.Error("zero writers must fail")
	}
	if _, err := NewReaderGroup(h.net, h.dir, "zero", 0, nil); err == nil {
		t.Error("zero readers must fail")
	}
}

func TestReaderStepStateReclaimed(t *testing.T) {
	// Consumed steps must not accumulate in the reader group (buffer
	// management: long-running streams would otherwise leak).
	h := newHarness()
	wg, err := NewWriterGroup(h.net, h.dir, "reclaim", 2, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "reclaim", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd := rg.Reader(0)
	rd.SelectProcessGroups([]int{0, 1})
	const steps = 12
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wg.Writer(w)
			for s := int64(0); s < steps; s++ {
				wr.BeginStep(s)
				wr.Write(VarMeta{Name: "p", Kind: ProcessGroupVar, ElemSize: 1}, make([]byte, 256))
				if err := wr.EndStep(); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	for s := int64(0); s < steps; s++ {
		if _, ok := rd.BeginStep(); !ok {
			t.Fatalf("no step %d", s)
		}
		if _, err := rd.ReadProcessGroups("p"); err != nil {
			t.Fatal(err)
		}
		rd.EndStep()
	}
	writers.Wait()
	rg.mu.Lock()
	pending := len(rg.steps)
	rg.mu.Unlock()
	if pending > 2 {
		t.Fatalf("%d step states retained after consumption, want <= 2", pending)
	}
	wg.Close()
	rg.Close()
}
