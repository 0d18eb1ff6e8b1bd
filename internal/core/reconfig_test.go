package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"flexio/internal/evpath"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
)

// waitWriterState polls until the writer session reaches the given state
// — the test-side stand-in for "the reconfig request is parked".
func waitWriterState(t *testing.T, g *WriterGroup, want SessionState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.SessionState() != want {
		if time.Now().After(deadline) {
			t.Errorf("writer session stuck in %v, want %v", g.SessionState(), want)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// writeFieldSteps drives one writer rank through steps [from, to).
func writeFieldSteps(t *testing.T, wr *Writer, box ndarray.Box, shape []int64, global ndarray.Box, from, to int) {
	t.Helper()
	for s := from; s < to; s++ {
		if err := wr.BeginStep(int64(s)); err != nil {
			t.Errorf("writer %d: %v", wr.Rank, err)
			return
		}
		meta := VarMeta{Name: "field", Kind: GlobalArrayVar, ElemSize: 8,
			GlobalShape: shape, Box: box}
		if err := wr.Write(meta, fillArrayBytes(box, global)); err != nil {
			t.Errorf("writer %d: %v", wr.Rank, err)
			return
		}
		if err := wr.EndStep(); err != nil {
			t.Errorf("writer %d step %d: %v", wr.Rank, s, err)
			return
		}
	}
}

// readFieldSteps drives one reader rank through steps [from, to),
// verifying every delivered byte against the ground-truth pattern — the
// byte-identical-to-baseline check: fillArrayBytes(box, global) is
// exactly what a never-reconfigured run delivers for that selection.
func readFieldSteps(t *testing.T, rd *Reader, global ndarray.Box, from, to int) {
	t.Helper()
	for s := from; s < to; s++ {
		step, ok := rd.BeginStep()
		if !ok || step != int64(s) {
			t.Errorf("reader %d: step %d ok=%v, want %d", rd.Rank, step, ok, s)
			return
		}
		data, box, err := rd.ReadArray("field")
		if err != nil {
			t.Errorf("reader %d step %d: %v", rd.Rank, s, err)
			return
		}
		if !bytes.Equal(data, fillArrayBytes(box, global)) {
			t.Errorf("reader %d step %d: data differs from baseline", rd.Rank, s)
			return
		}
		if err := rd.EndStep(); err != nil {
			t.Errorf("reader %d step %d: %v", rd.Rank, s, err)
			return
		}
	}
}

// TestMidRunPlacementSwitch is the issue's acceptance scenario: a 2-writer
// stream feeds 2 readers for 3 steps, the reader group reconfigures to 3
// ranks with a different decomposition AND a different node placement
// (flipping at least one pair from shm to rdma), and 3 more steps flow.
// Every step must be byte-identical to a never-reconfigured baseline and
// exactly one reconfiguration must be recorded.
func TestMidRunPlacementSwitch(t *testing.T) {
	const nw, preSteps, postSteps = 2, 3, 3
	h := newHarness()
	shape := []int64{24, 24}
	global := ndarray.BoxFromShape(shape)
	wdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nw, 2))
	oldDec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(2, 2))
	newDec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(3, 2))

	wm := monitor.New("writers")
	rm := monitor.New("readers")
	// Initial placement: everything on node 0 over shm.
	opts := Options{
		Transport: func(w, r int) (evpath.TransportKind, int, int) {
			return evpath.ShmTransport, 0, 0
		},
		WriterNode: func(w int) int { return 0 },
	}
	wgp, err := NewWriterGroup(h.net, h.dir, "switch", nw, opts, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "switch", 2, rm)
	if err != nil {
		t.Fatal(err)
	}

	var writers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wgp.Writer(w)
			writeFieldSteps(t, wr, wdec.Boxes[w], shape, global, 0, preSteps)
			// Hold the step-boundary until the reconfig request is parked so
			// the boundary is deterministic (no replay in this scenario).
			waitWriterState(t, wgp, StateReconfiguring)
			writeFieldSteps(t, wr, wdec.Boxes[w], shape, global, preSteps, preSteps+postSteps)
		}()
	}

	var olds sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		olds.Add(1)
		go func() {
			defer olds.Done()
			rd := rg.Reader(r)
			if err := rd.SelectArray("field", oldDec.Boxes[r]); err != nil {
				t.Error(err)
				return
			}
			readFieldSteps(t, rd, global, 0, preSteps)
		}()
	}
	olds.Wait()

	// Re-place: 3 ranks, new decomposition; rank 0 stays on the writers'
	// node (shm), ranks 1-2 move to node 1 (rdma) — the shm->rdma flip.
	err = rg.Reconfigure(ReconfigSpec{
		NReaders: 3,
		Arrays:   map[string][]ndarray.Box{"field": newDec.Boxes},
		Nodes:    []int{0, 1, 1},
	})
	if err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}

	var news sync.WaitGroup
	for r := 0; r < 3; r++ {
		r := r
		news.Add(1)
		go func() {
			defer news.Done()
			rd := rg.Reader(r)
			readFieldSteps(t, rd, global, preSteps, preSteps+postSteps)
			if _, ok := rd.BeginStep(); ok {
				t.Errorf("reader %d: expected EOS", r)
			}
		}()
	}
	writers.Wait()
	if err := wgp.Close(); err != nil {
		t.Fatalf("writer close: %v", err)
	}
	news.Wait()
	rg.Close()
	requirePayloadPoolDrained(t, wgp)

	if e := wgp.SessionEpoch(); e != 2 {
		t.Errorf("writer epoch = %d, want 2", e)
	}
	if e := rg.SessionEpoch(); e != 2 {
		t.Errorf("reader epoch = %d, want 2", e)
	}
	ws := wm.Snapshot()
	rs := rm.Snapshot()
	if ws.Gauges["session.epoch"] != 2 {
		t.Errorf("writer session.epoch gauge = %d, want 2", ws.Gauges["session.epoch"])
	}
	if ws.Counts["reconfig.count"] != 1 {
		t.Errorf("writer reconfig.count = %d, want 1", ws.Counts["reconfig.count"])
	}
	if rs.Counts["reconfig.count"] != 1 {
		t.Errorf("reader reconfig.count = %d, want 1", rs.Counts["reconfig.count"])
	}
	if ws.Counts["reconfig.drain_ns"] <= 0 {
		t.Errorf("reconfig.drain_ns not recorded")
	}
	// Epoch 1 dialed 2x2 pairs over shm; epoch 2 dialed 2x3 pairs of which
	// rank 0's are shm and ranks 1-2's are rdma.
	if got := ws.Counts["conn.dial.shm"]; got != 6 {
		t.Errorf("conn.dial.shm = %d, want 6", got)
	}
	if got := ws.Counts["conn.dial.rdma"]; got != 4 {
		t.Errorf("conn.dial.rdma = %d, want 4", got)
	}
}

// TestReconfigReplaysInFlightSteps covers the no-step-lost guarantee: the
// writer flushes a step under the old regime after the readers stopped
// consuming; the reconfigured ranks must still observe it, byte-identical,
// assembled locally from the buffered old-rank pieces. A scalar rides
// along to cover non-array replay.
func TestReconfigReplaysInFlightSteps(t *testing.T) {
	const nw = 2
	h := newHarness()
	shape := []int64{24, 24}
	global := ndarray.BoxFromShape(shape)
	wdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nw, 2))
	oldDec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(2, 2))
	newDec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(3, 2))

	wgp, err := NewWriterGroup(h.net, h.dir, "replay", nw, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "replay", 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	writeStep := func(wr *Writer, s int) {
		if err := wr.BeginStep(int64(s)); err != nil {
			t.Errorf("writer %d: %v", wr.Rank, err)
			return
		}
		meta := VarMeta{Name: "field", Kind: GlobalArrayVar, ElemSize: 8,
			GlobalShape: shape, Box: wdec.Boxes[wr.Rank]}
		if err := wr.Write(meta, fillArrayBytes(wdec.Boxes[wr.Rank], global)); err != nil {
			t.Errorf("writer %d: %v", wr.Rank, err)
			return
		}
		if wr.Rank == 0 {
			val := make([]byte, 8)
			binary.LittleEndian.PutUint64(val, uint64(1000+s))
			if err := wr.Write(VarMeta{Name: "time", Kind: ScalarVar, ElemSize: 8}, val); err != nil {
				t.Errorf("writer %d: %v", wr.Rank, err)
				return
			}
		}
		if err := wr.EndStep(); err != nil {
			t.Errorf("writer %d step %d: %v", wr.Rank, s, err)
		}
	}

	var writers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wgp.Writer(w)
			// Steps 0-3 flush under the old regime — the readers only consume
			// 0-2 before reconfiguring, so step 3 is in flight and must be
			// replayed. Steps 4-5 flush under the new regime.
			for s := 0; s < 4; s++ {
				writeStep(wr, s)
			}
			waitWriterState(t, wgp, StateReconfiguring)
			for s := 4; s < 6; s++ {
				writeStep(wr, s)
			}
		}()
	}

	var olds sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		olds.Add(1)
		go func() {
			defer olds.Done()
			rd := rg.Reader(r)
			if err := rd.SelectArray("field", oldDec.Boxes[r]); err != nil {
				t.Error(err)
				return
			}
			readFieldSteps(t, rd, global, 0, 3)
		}()
	}
	olds.Wait()

	if err := rg.Reconfigure(ReconfigSpec{
		NReaders: 3,
		Arrays:   map[string][]ndarray.Box{"field": newDec.Boxes},
	}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}

	var news sync.WaitGroup
	for r := 0; r < 3; r++ {
		r := r
		news.Add(1)
		go func() {
			defer news.Done()
			rd := rg.Reader(r)
			for s := 3; s < 6; s++ {
				step, ok := rd.BeginStep()
				if !ok || step != int64(s) {
					t.Errorf("reader %d: step %d ok=%v, want %d", r, step, ok, s)
					return
				}
				data, box, err := rd.ReadArray("field")
				if err != nil {
					t.Errorf("reader %d step %d: %v", r, s, err)
					return
				}
				if !bytes.Equal(data, fillArrayBytes(box, global)) {
					t.Errorf("reader %d step %d: data differs from baseline", r, s)
					return
				}
				val, err := rd.ReadScalar("time")
				if err != nil {
					t.Errorf("reader %d step %d scalar: %v", r, s, err)
					return
				}
				if got := binary.LittleEndian.Uint64(val); got != uint64(1000+s) {
					t.Errorf("reader %d step %d: scalar = %d, want %d", r, s, got, 1000+s)
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
	wgp.Close()
	news.Wait()
	rg.Close()
	requirePayloadPoolDrained(t, wgp)

	// Replay state must not linger once every new rank consumed it.
	rg.mu.Lock()
	left := len(rg.replay)
	rg.mu.Unlock()
	if left != 0 {
		t.Errorf("%d replay steps retained", left)
	}
}

// TestReconfigSelectionChangeAllCachingLevels changes only the selection
// decomposition (same rank count, same placement) mid-run under each of
// the three handshake caching levels; the cached state on both sides must
// be invalidated by the epoch bump, never served stale.
func TestReconfigSelectionChangeAllCachingLevels(t *testing.T) {
	for _, level := range []CachingLevel{NoCaching, CachingLocal, CachingAll} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			const nw, preSteps, postSteps = 3, 3, 3
			h := newHarness()
			shape := []int64{24, 24}
			global := ndarray.BoxFromShape(shape)
			wdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nw, 2))
			// Same N, orthogonal split: every writer-reader overlap changes.
			oldDec, _ := ndarray.BlockDecompose(shape, []int{2, 1})
			newDec, _ := ndarray.BlockDecompose(shape, []int{1, 2})

			stream := fmt.Sprintf("resel-%v", level)
			wgp, err := NewWriterGroup(h.net, h.dir, stream, nw, Options{Caching: level}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rg, err := NewReaderGroup(h.net, h.dir, stream, 2, nil)
			if err != nil {
				t.Fatal(err)
			}

			var writers sync.WaitGroup
			for w := 0; w < nw; w++ {
				w := w
				writers.Add(1)
				go func() {
					defer writers.Done()
					wr := wgp.Writer(w)
					writeFieldSteps(t, wr, wdec.Boxes[w], shape, global, 0, preSteps)
					waitWriterState(t, wgp, StateReconfiguring)
					writeFieldSteps(t, wr, wdec.Boxes[w], shape, global, preSteps, preSteps+postSteps)
				}()
			}
			var olds sync.WaitGroup
			for r := 0; r < 2; r++ {
				r := r
				olds.Add(1)
				go func() {
					defer olds.Done()
					rd := rg.Reader(r)
					if err := rd.SelectArray("field", oldDec.Boxes[r]); err != nil {
						t.Error(err)
						return
					}
					readFieldSteps(t, rd, global, 0, preSteps)
				}()
			}
			olds.Wait()

			if err := rg.Reconfigure(ReconfigSpec{
				NReaders: 2,
				Arrays:   map[string][]ndarray.Box{"field": newDec.Boxes},
			}); err != nil {
				t.Fatalf("Reconfigure: %v", err)
			}

			var news sync.WaitGroup
			for r := 0; r < 2; r++ {
				r := r
				news.Add(1)
				go func() {
					defer news.Done()
					readFieldSteps(t, rg.Reader(r), global, preSteps, preSteps+postSteps)
				}()
			}
			writers.Wait()
			wgp.Close()
			news.Wait()
			rg.Close()
			requirePayloadPoolDrained(t, wgp)
		})
	}
}

// TestReconfigConcurrentWithAsync reconfigures while the writer runs in
// async mode — the request lands while queued steps are still being
// flushed by the background worker; run under -race this doubles as the
// concurrency check on the quiesce path.
func TestReconfigConcurrentWithAsync(t *testing.T) {
	const nw, preSteps, postSteps = 2, 4, 4
	h := newHarness()
	shape := []int64{24, 24}
	global := ndarray.BoxFromShape(shape)
	wdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nw, 2))
	oldDec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(2, 2))
	newDec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(3, 2))

	wgp, err := NewWriterGroup(h.net, h.dir, "async-re", nw, Options{Async: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "async-re", 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	var writers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wgp.Writer(w)
			writeFieldSteps(t, wr, wdec.Boxes[w], shape, global, 0, preSteps)
			// EndStep only queues in async mode: the worker may still be
			// flushing earlier steps when the reconfig request arrives.
			waitWriterState(t, wgp, StateReconfiguring)
			writeFieldSteps(t, wr, wdec.Boxes[w], shape, global, preSteps, preSteps+postSteps)
		}()
	}
	var olds sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		olds.Add(1)
		go func() {
			defer olds.Done()
			rd := rg.Reader(r)
			if err := rd.SelectArray("field", oldDec.Boxes[r]); err != nil {
				t.Error(err)
				return
			}
			readFieldSteps(t, rd, global, 0, preSteps)
		}()
	}
	olds.Wait()

	if err := rg.Reconfigure(ReconfigSpec{
		NReaders: 3,
		Arrays:   map[string][]ndarray.Box{"field": newDec.Boxes},
	}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}

	var news sync.WaitGroup
	for r := 0; r < 3; r++ {
		r := r
		news.Add(1)
		go func() {
			defer news.Done()
			rd := rg.Reader(r)
			readFieldSteps(t, rd, global, preSteps, preSteps+postSteps)
			if _, ok := rd.BeginStep(); ok {
				t.Errorf("reader %d: expected EOS", r)
			}
		}()
	}
	writers.Wait()
	wgp.Close()
	news.Wait()
	rg.Close()
	requirePayloadPoolDrained(t, wgp)
}

// TestWriterBoxChangeCachingAll changes the writer-side decomposition
// mid-run under CACHING_ALL: the cached distribution must be detected as
// stale (fingerprint change), re-exchanged exactly once, and the reader's
// assembly must stay byte-identical.
func TestWriterBoxChangeCachingAll(t *testing.T) {
	const nw, flipAt, steps = 2, 3, 6
	h := newHarness()
	shape := []int64{24, 24}
	global := ndarray.BoxFromShape(shape)
	decA, _ := ndarray.BlockDecompose(shape, []int{2, 1})
	decB, _ := ndarray.BlockDecompose(shape, []int{1, 2})

	wm := monitor.New("writers")
	wgp, err := NewWriterGroup(h.net, h.dir, "wbox", nw, Options{Caching: CachingAll}, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "wbox", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(2, 2))

	var writers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wgp.Writer(w)
			writeFieldSteps(t, wr, decA.Boxes[w], shape, global, 0, flipAt)
			writeFieldSteps(t, wr, decB.Boxes[w], shape, global, flipAt, steps)
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			rd := rg.Reader(r)
			if err := rd.SelectArray("field", rdec.Boxes[r]); err != nil {
				t.Error(err)
				return
			}
			readFieldSteps(t, rd, global, 0, steps)
		}()
	}
	writers.Wait()
	wgp.Close()
	readers.Wait()
	rg.Close()

	// CACHING_ALL sends the distribution once per distinct decomposition.
	if got := wm.Snapshot().Counts["handshake.writer-dist.sent"]; got != 2 {
		t.Errorf("writer-dist sent %d times, want 2 (one per decomposition)", got)
	}
}

// TestReconfigValidation exercises the request guards.
func TestReconfigValidation(t *testing.T) {
	h := newHarness()
	wgp, _ := NewWriterGroup(h.net, h.dir, "reval", 1, Options{}, nil)
	rg, err := NewReaderGroup(h.net, h.dir, "reval", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wgp.Close()
	defer rg.Close()

	if err := rg.Reconfigure(ReconfigSpec{NReaders: 0}); err == nil {
		t.Error("zero ranks must fail")
	}
	if err := rg.Reconfigure(ReconfigSpec{NReaders: 2,
		Arrays: map[string][]ndarray.Box{"x": make([]ndarray.Box, 3)}}); err == nil {
		t.Error("box count mismatch must fail")
	}
	if err := rg.Reconfigure(ReconfigSpec{NReaders: 2, Nodes: []int{1}}); err == nil {
		t.Error("node count mismatch must fail")
	}
	if err := rg.Reconfigure(ReconfigSpec{NReaders: 2, PG: [][]int{{0}}}); err == nil {
		t.Error("pg claim count mismatch must fail")
	}
	// Before the first BeginStep no selections were sent yet.
	if err := rg.Reconfigure(ReconfigSpec{NReaders: 2}); err == nil {
		t.Error("reconfig before streaming must fail")
	}
}
