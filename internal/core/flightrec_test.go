package core

import (
	"testing"

	"flexio/internal/flight"
	"flexio/internal/ndarray"
)

// TestStreamJournalsCausalChain: a journaled stream records the step
// chain writer.flush -> writer.pack -> send.<transport> with explicit
// causal parents, and the reader side lands accept/assemble events on
// the same steps — the raw material for live critical-path analysis.
func TestStreamJournalsCausalChain(t *testing.T) {
	h := newHarness(t)
	j := flight.NewJournal(0)
	shape := []int64{16, 16}
	global := ndarray.BoxFromShape(shape)
	const steps = 3
	wg, err := NewWriterGroup(h.net, h.dir, "flight-chain", 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "flight-chain", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wg.SetJournal(j)
	rg.SetJournal(j)

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

	evs := j.Snapshot()
	byID := map[flight.EventID]*flight.Event{}
	for i := range evs {
		byID[evs[i].ID] = &evs[i]
	}
	counts := map[string]int{}
	for i := range evs {
		ev := &evs[i]
		counts[ev.Point]++
		switch ev.Point {
		case "writer.pack", "send.chan":
			p := byID[ev.Parent]
			if p == nil || p.Point != "writer.flush" || p.Step != ev.Step {
				t.Fatalf("%s (step %d) parent = %+v, want same-step writer.flush", ev.Point, ev.Step, p)
			}
		case "writer.flush":
			if ev.Kind != flight.KindCompute || ev.Dur <= 0 {
				t.Fatalf("flush event lacks extent: %+v", ev)
			}
		}
	}
	for _, pt := range []string{"writer.flush", "writer.pack", "send.chan", "reader.accept", "reader.assemble"} {
		if counts[pt] < steps {
			t.Fatalf("point %q journaled %d times, want >= %d (counts %v)", pt, counts[pt], steps, counts)
		}
	}

	// The journaled steps analyze into per-step critical paths.
	an := flight.Analyze(evs)
	if len(an.Steps) < steps {
		t.Fatalf("analysis covers %d steps, want >= %d", len(an.Steps), steps)
	}
	for i := range an.Steps {
		if an.Steps[i].EdgeSum() <= 0 {
			t.Fatalf("step %d has an empty critical path", an.Steps[i].Step)
		}
	}
}
