package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"flexio/internal/evpath"
	"flexio/internal/flight"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
)

// runTracedStream runs a 2-writer / 2-reader shm stream for three steps
// with pass-through data-conditioning filters on both sides, so every
// recorder site fires: writer.flush, writer.pack, dc.plugin (writer),
// send.shm, reader.accept, dc.plugin (reader), reader.assemble. Any of
// the sinks may be nil.
func runTracedStream(t *testing.T, stream string, wm, rm *monitor.Monitor, j *flight.Journal) {
	t.Helper()
	const nw, nr, steps = 2, 2, 3
	h := newHarness(t)
	shape := []int64{16, 16}
	global := ndarray.BoxFromShape(shape)
	wdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nw, 2))
	rdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nr, 2))
	opts := Options{Transport: func(w, r int) (evpath.TransportKind, int, int) {
		return evpath.ShmTransport, 0, 0
	}}

	wg, err := NewWriterGroup(h.net, h.dir, stream, nw, opts, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, stream, nr, rm)
	if err != nil {
		t.Fatal(err)
	}
	wg.SetJournal(j)
	rg.SetJournal(j)
	pass := func(ev *evpath.Event) (*evpath.Event, error) { return ev, nil }
	wg.plugins.install("pass", pass)
	rg.InstallPlugin(pass)

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
}

// TestStepSpansCorrelateAcrossRanks is the tracing acceptance check: one
// timestep's pack → send → assemble → plug-in spans — journal events
// with extent, recorded by the writer and reader groups into one journal
// — correlate by (step, epoch, scope), and the writer-side stage events
// hang off that step's writer.flush event.
func TestStepSpansCorrelateAcrossRanks(t *testing.T) {
	j := flight.NewJournal(0)
	runTracedStream(t, "span-correlate", nil, nil, j)

	const probe = int64(1) // a mid-run step
	byPoint := map[string][]flight.Event{}
	for _, ev := range j.Snapshot() {
		if ev.Step == probe {
			byPoint[ev.Point] = append(byPoint[ev.Point], ev)
		}
	}
	for _, want := range []string{"writer.flush", "writer.pack", "send.shm", "reader.accept", "reader.assemble", "dc.plugin"} {
		if len(byPoint[want]) == 0 {
			t.Fatalf("step %d has no %q event; got points %v", probe, want, byPoint)
		}
	}
	// All stages of the step ran under the same session epoch and stream.
	for pt, evs := range byPoint {
		for _, ev := range evs {
			if ev.Epoch != 1 || ev.Scope != "span-correlate" {
				t.Fatalf("%s event has epoch %d scope %q, want 1 and the stream: %+v", pt, ev.Epoch, ev.Scope, ev)
			}
		}
	}
	// Writer-side stage events hang off this step's flush event.
	flushID := byPoint["writer.flush"][0].ID
	for _, pt := range []string{"writer.pack", "send.shm"} {
		for _, ev := range byPoint[pt] {
			if ev.Parent != flushID {
				t.Fatalf("%s event parent %d != flush event %d", pt, ev.Parent, flushID)
			}
		}
	}
	// Every writer rank packed and every reader rank assembled.
	wantRanks := func(pt string, n int) {
		seen := map[int]bool{}
		for _, ev := range byPoint[pt] {
			seen[ev.Rank] = true
		}
		if len(seen) != n {
			t.Fatalf("%s events cover ranks %v, want %d ranks", pt, seen, n)
		}
	}
	wantRanks("writer.pack", 2)
	wantRanks("reader.assemble", 2)
}

// TestRecorderParity: each data-path site makes one recorder call that
// feeds whichever sink is attached. A monitor-only run reports the
// per-point histogram counts a journal-only run journals, and both equal
// what the two recorders produced before they were one: the monitor's
// points minus the duplicate "flush" timer, the journal's events plus
// the two dc.plugin sites that used to record spans only.
func TestRecorderParity(t *testing.T) {
	wm, rm := monitor.New("writers"), monitor.New("readers")
	runTracedStream(t, "parity-mon", wm, rm, nil)
	timings := monitor.Merge("both", wm.Snapshot(), rm.Snapshot()).Timings
	j := flight.NewJournal(0)
	runTracedStream(t, "parity-jrn", nil, nil, j)
	journaled := map[string]int64{}
	for _, ev := range j.Snapshot() {
		journaled[ev.Point]++
	}

	// What the two-recorder code recorded for this exact stream: the
	// monitor from spans plus the "flush" timer, the journal from events.
	parentMonitor := map[string]int64{
		"flush": 3, "writer.flush": 3, "writer.pack": 6, "dc.plugin": 12,
		"send.shm": 18, "reader.assemble": 6,
	}
	parentJournal := map[string]int64{
		"writer.flush": 3, "writer.pack": 6, "send.shm": 18,
		"reader.accept": 6, "reader.assemble": 6,
	}
	wantMonitor := map[string]int64{}
	for pt, n := range parentMonitor {
		if pt != "flush" {
			wantMonitor[pt] = n
		}
	}
	wantJournal := map[string]int64{"dc.plugin": parentMonitor["dc.plugin"]}
	for pt, n := range parentJournal {
		wantJournal[pt] = n
	}

	gotMonitor := map[string]int64{}
	for pt, st := range timings {
		gotMonitor[pt] = st.Count
	}
	if fmt.Sprint(gotMonitor) != fmt.Sprint(wantMonitor) {
		t.Errorf("monitor-only counts %v, want %v", gotMonitor, wantMonitor)
	}
	if fmt.Sprint(journaled) != fmt.Sprint(wantJournal) {
		t.Errorf("journal-only counts %v, want %v", journaled, wantJournal)
	}
}

// TestNoSinkSendStageAllocFree: with neither a journal nor a monitor
// attached, opening and closing the send stage — the site with the most
// formatting behind its guard — allocates nothing.
func TestNoSinkSendStageAllocFree(t *testing.T) {
	g := &WriterGroup{key: "acme/gts"}
	tr := stepTrace{epoch: 1, parent: 7}
	var conn evpath.Conn = stageConn{}
	if allocs := testing.AllocsPerRun(1000, func() {
		st := g.beginSend(conn, 1, 0, 3, tr, 4096)
		st.End()
	}); allocs != 0 {
		t.Fatalf("no-sink send stage allocates %v times per call, want 0", allocs)
	}
}

// stageConn is a do-nothing connection for recorder-only tests.
type stageConn struct{}

func (stageConn) Send([]byte) error     { return nil }
func (stageConn) Recv() ([]byte, error) { return nil, nil }
func (stageConn) Close() error          { return nil }
func (stageConn) Transport() string     { return "shm" }

// TestShippedReportOmitsSpans: the per-step online report crossing the
// coordinator channel carries the aggregate histograms only — per-step
// records stay in the journal — so each shipped step costs a few hundred
// bytes of JSON per point, not a copy of a trace ring.
func TestShippedReportOmitsSpans(t *testing.T) {
	wm := monitor.New("writers")
	_, rm := runTracePair(t, wm)
	rep, _, ok := rm()
	if !ok {
		t.Fatal("no writer report arrived")
	}
	if rep.Timings["writer.flush"].Count == 0 {
		t.Fatalf("shipped report lost timings: %+v", rep.Timings)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if limit := 1024 * (len(rep.Timings) + 4); len(blob) > limit {
		t.Fatalf("shipped report is %d bytes for %d points, want under %d", len(blob), len(rep.Timings), limit)
	}
}

// runTracePair runs a tiny 1x1 stream and returns a getter for the
// reader-side copy of the writer's shipped monitoring report.
func runTracePair(t *testing.T, wm *monitor.Monitor) (monitor.Report, func() (monitor.Report, int64, bool)) {
	t.Helper()
	h := newHarness(t)
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
	// deferred writer.flush stage has ended, so it carries no flush
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
