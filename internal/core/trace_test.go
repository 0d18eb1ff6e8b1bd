package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"flexio/internal/evpath"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
)

// TestStepSpansCorrelateAcrossRanks is the tracing acceptance check: one
// timestep's pack → send → assemble → plug-in spans, recorded by the
// writer-side and reader-side monitors independently, correlate by
// (step, epoch) in the merged report, and the writer-side stage spans
// hang off that step's writer.flush span.
func TestStepSpansCorrelateAcrossRanks(t *testing.T) {
	const nw, nr, steps = 2, 2, 3
	h := newHarness()
	shape := []int64{16, 16}
	global := ndarray.BoxFromShape(shape)
	wdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nw, 2))
	rdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nr, 2))
	wm := monitor.New("writers")
	rm := monitor.New("readers")
	opts := Options{Transport: func(w, r int) (evpath.TransportKind, int, int) {
		return evpath.ShmTransport, 0, 0
	}}

	wg, err := NewWriterGroup(h.net, h.dir, "span-correlate", nw, opts, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "span-correlate", nr, rm)
	if err != nil {
		t.Fatal(err)
	}
	// A pass-through conditioning filter so reader-side dc.plugin spans
	// appear on the arriving events.
	rg.InstallPlugin(func(ev *evpath.Event) (*evpath.Event, error) { return ev, nil })

	var writers, readers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wg.Writer(w)
			for s := 0; s < steps; s++ {
				if err := wr.BeginStep(int64(s)); err != nil {
					t.Error(err)
					return
				}
				meta := VarMeta{
					Name: "field", Kind: GlobalArrayVar, ElemSize: 8,
					GlobalShape: shape, Box: wdec.Boxes[w],
				}
				if err := wr.Write(meta, fillArrayBytes(wdec.Boxes[w], global)); err != nil {
					t.Error(err)
					return
				}
				if err := wr.EndStep(); err != nil {
					t.Error(err)
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
				t.Error(err)
				return
			}
			for s := 0; s < steps; s++ {
				step, ok := rd.BeginStep()
				if !ok {
					t.Errorf("reader %d: early EOS at %d", r, s)
					return
				}
				data, box, err := rd.ReadArray("field")
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(data, fillArrayBytes(box, global)) {
					t.Errorf("reader %d step %d: data mismatch", r, step)
				}
				rd.EndStep()
			}
		}()
	}
	writers.Wait()
	if err := wg.Close(); err != nil {
		t.Fatal(err)
	}
	readers.Wait()
	rg.Close()

	merged := monitor.Merge("trace", wm.Snapshot(), rm.Snapshot())
	const probe = int64(1) // a mid-run step
	byPoint := map[string][]monitor.Span{}
	for _, sp := range merged.Spans {
		if sp.Step == probe {
			byPoint[sp.Point] = append(byPoint[sp.Point], sp)
		}
	}
	for _, want := range []string{"writer.flush", "writer.pack", "send.shm", "reader.assemble", "dc.plugin"} {
		if len(byPoint[want]) == 0 {
			t.Fatalf("step %d has no %q span; got points %v", probe, want, pointsOf(merged.Spans))
		}
	}
	// All stages of the step ran under the same session epoch.
	for pt, sps := range byPoint {
		for _, sp := range sps {
			if sp.Epoch != 1 {
				t.Fatalf("%s span has epoch %d, want 1: %+v", pt, sp.Epoch, sp)
			}
		}
	}
	// Writer-side stage spans hang off this step's flush span.
	flushID := byPoint["writer.flush"][0].ID
	for _, pt := range []string{"writer.pack", "send.shm"} {
		for _, sp := range byPoint[pt] {
			if sp.Parent != flushID {
				t.Fatalf("%s span parent %d != flush span %d", pt, sp.Parent, flushID)
			}
		}
	}
	// Every writer rank packed and every reader rank assembled.
	wantRanks := func(pt string, n int) {
		seen := map[int]bool{}
		for _, sp := range byPoint[pt] {
			seen[sp.Rank] = true
		}
		if len(seen) != n {
			t.Fatalf("%s spans cover ranks %v, want %d ranks", pt, seen, n)
		}
	}
	wantRanks("writer.pack", nw)
	wantRanks("reader.assemble", nr)
	// Origins separate the two sides.
	if byPoint["writer.pack"][0].Origin != "writers" || byPoint["reader.assemble"][0].Origin != "readers" {
		t.Fatalf("origins not stamped: %+v %+v", byPoint["writer.pack"][0], byPoint["reader.assemble"][0])
	}
}

func pointsOf(spans []monitor.Span) []string {
	seen := map[string]bool{}
	var out []string
	for _, sp := range spans {
		if !seen[sp.Point] {
			seen[sp.Point] = true
			out = append(out, sp.Point)
		}
	}
	return out
}

// TestShippedReportOmitsSpans: the per-step online report crossing the
// coordinator channel carries histograms but not the span ring.
func TestShippedReportOmitsSpans(t *testing.T) {
	wm := monitor.New("writers")
	_, rm := runTracePair(t, wm)
	rep, _, ok := rm()
	if !ok {
		t.Fatal("no writer report arrived")
	}
	if len(rep.Spans) != 0 {
		t.Fatalf("shipped report carries %d spans, want 0", len(rep.Spans))
	}
	if rep.Timings["flush"].Count == 0 {
		t.Fatalf("shipped report lost timings: %+v", rep.Timings)
	}
}

// runTracePair runs a tiny 1x1 stream and returns a getter for the
// reader-side copy of the writer's shipped monitoring report.
func runTracePair(t *testing.T, wm *monitor.Monitor) (monitor.Report, func() (monitor.Report, int64, bool)) {
	t.Helper()
	h := newHarness()
	shape := []int64{8}
	wdec, _ := ndarray.BlockDecompose(shape, []int{1})
	global := ndarray.BoxFromShape(shape)
	stream := fmt.Sprintf("ship-%p", wm)
	wg, err := NewWriterGroup(h.net, h.dir, stream, 1, Options{}, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, stream, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rd := rg.Reader(0)
		if err := rd.SelectArray("field", wdec.Boxes[0]); err != nil {
			t.Error(err)
			return
		}
		for {
			_, ok := rd.BeginStep()
			if !ok {
				return
			}
			if _, _, err := rd.ReadArray("field"); err != nil {
				t.Error(err)
			}
			rd.EndStep()
		}
	}()
	wr := wg.Writer(0)
	const steps = 2
	for s := 0; s < steps; s++ {
		if err := wr.BeginStep(int64(s)); err != nil {
			t.Fatal(err)
		}
		meta := VarMeta{Name: "field", Kind: GlobalArrayVar, ElemSize: 8, GlobalShape: shape, Box: wdec.Boxes[0]}
		if err := wr.Write(meta, fillArrayBytes(wdec.Boxes[0], global)); err != nil {
			t.Fatal(err)
		}
		if err := wr.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Close()
	<-done
	// The reports travel the coordinator channel asynchronously; wait for
	// the last step's before tearing the reader down. The first one would
	// not do: step 0's report is snapshotted inside flush, before the
	// deferred "flush" timer has ever stopped, so it carries no flush
	// timing — only a later step's report shows the earlier flushes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, step, ok := rg.WriterReport(); (ok && step == steps-1) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rep := wm.Snapshot()
	getter := func() (monitor.Report, int64, bool) { return rg.WriterReport() }
	rg.Close()
	return rep, getter
}
