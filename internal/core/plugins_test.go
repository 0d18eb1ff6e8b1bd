package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"flexio/internal/dcplugin"
	"flexio/internal/evpath"
	"flexio/internal/monitor"
)

// startPGStream couples nw writers to one reader over the PG pattern and
// returns the groups, pre-selected (the reader claims all writers).
func startPGStream(t *testing.T, name string, nw int, wm *monitor.Monitor) (*WriterGroup, *ReaderGroup, *Reader) {
	t.Helper()
	h := newHarness(t)
	wg, err := NewWriterGroup(h.net, h.dir, name, nw, Options{}, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, name, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd := rg.Reader(0)
	claims := make([]int, nw)
	for i := range claims {
		claims[i] = i
	}
	if err := rd.SelectProcessGroups(claims); err != nil {
		t.Fatal(err)
	}
	return wg, rg, rd
}

// writeStep emits one PG step from every writer rank in the background
// and returns a completion channel. Synchronous EndStep blocks until the
// reader's first BeginStep sends its selections, so callers must begin
// reading before waiting on the channel.
func writeStep(t *testing.T, wg *WriterGroup, step int64, payload []float64) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	var ws sync.WaitGroup
	for w := 0; w < wg.NWriters; w++ {
		w := w
		ws.Add(1)
		go func() {
			defer ws.Done()
			wr := wg.Writer(w)
			if err := wr.BeginStep(step); err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			if err := wr.Write(VarMeta{Name: "p", Kind: ProcessGroupVar, ElemSize: 8},
				dcplugin.FloatsToBytes(payload)); err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			if err := wr.EndStep(); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}()
	}
	go func() {
		ws.Wait()
		close(done)
	}()
	return done
}

func TestDeployPluginToWriters(t *testing.T) {
	wm := monitor.New("writers")
	wg, rg, rd := startPGStream(t, "deploy", 2, wm)

	// The reader must enter the stream (selections sent) before control
	// traffic; BeginStep is deferred until data arrives, so deploy first:
	// deployment only needs the coordinator connection, which exists.
	if err := rg.DeployPluginToWriters(dcplugin.SamplePlugin(4)); err != nil {
		t.Fatal(err)
	}

	payload := make([]float64, 100)
	for i := range payload {
		payload[i] = float64(i)
	}
	done := writeStep(t, wg, 0, payload)

	if _, ok := rd.BeginStep(); !ok {
		t.Fatal("no step")
	}
	<-done
	groups, err := rd.ReadProcessGroups("p")
	if err != nil {
		t.Fatal(err)
	}
	for w, raw := range groups {
		got := dcplugin.BytesToFloats(raw)
		if len(got) != 25 {
			t.Fatalf("writer %d payload not conditioned at source: %d values", w, len(got))
		}
		if got[1] != 4 {
			t.Fatalf("writer %d wrong sample content: %v", w, got[:2])
		}
	}
	rd.EndStep()
	if wm.Snapshot().Counts["dc.writer.installed"] != 1 {
		t.Fatal("writer-side install not recorded")
	}
	// The conditioned stream moved ~1/4 of the bytes.
	sent := wm.Snapshot().Volumes["data.bytes"]
	if sent > int64(2*len(payload)*8) {
		t.Fatalf("writer sent %d bytes; plug-in should have cut the volume", sent)
	}
	wg.Close()
	rg.Close()
}

func TestDeployPluginCompileErrorRejected(t *testing.T) {
	wg, rg, _ := startPGStream(t, "deploy-bad", 1, nil)
	defer wg.Close()
	defer rg.Close()
	err := rg.DeployPluginToWriters(dcplugin.Plugin{Name: "bad", Source: "x = ;"})
	if err == nil {
		t.Fatal("bad plug-in source must be rejected")
	}
}

func TestMigratePluginToWriters(t *testing.T) {
	wg, rg, rd := startPGStream(t, "migrate", 1, nil)
	p := dcplugin.SamplePlugin(2)
	filter, err := p.Filter()
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: condition on the reader side.
	rg.InstallNamedPlugin(p.Name, filter)
	payload := make([]float64, 40)
	done := writeStep(t, wg, 0, payload)
	if _, ok := rd.BeginStep(); !ok {
		t.Fatal("no step 0")
	}
	<-done
	g0, _ := rd.ReadProcessGroups("p")
	if n := len(dcplugin.BytesToFloats(g0[0])); n != 20 {
		t.Fatalf("reader-side sampling broken: %d", n)
	}
	rd.EndStep()

	// Phase 2: migrate the codelet into the writers' address space.
	if err := rg.MigratePluginToWriters(p); err != nil {
		t.Fatal(err)
	}
	done1 := writeStep(t, wg, 1, payload)
	if _, ok := rd.BeginStep(); !ok {
		t.Fatal("no step 1")
	}
	<-done1
	// Still sampled exactly once (writer side now, reader filter gone).
	g1, _ := rd.ReadProcessGroups("p")
	if n := len(dcplugin.BytesToFloats(g1[0])); n != 20 {
		t.Fatalf("migrated sampling should apply once: %d values", n)
	}
	rd.EndStep()
	wg.Close()
	rg.Close()
}

func TestTransientFaultsRetried(t *testing.T) {
	h := newHarness(t)
	var wrapped []evpath.Conn
	var wrapMu sync.Mutex
	wm := monitor.New("writers")
	opts := Options{
		SendRetries: 3,
		WrapConn: func(c evpath.Conn) evpath.Conn {
			f := evpath.InjectFaults(c, 3) // every 3rd send fails once
			wrapMu.Lock()
			wrapped = append(wrapped, f)
			wrapMu.Unlock()
			return f
		},
	}
	wg, err := NewWriterGroup(h.net, h.dir, "faults", 2, opts, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "faults", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd := rg.Reader(0)
	rd.SelectProcessGroups([]int{0, 1})

	payload := make([]float64, 64)
	for i := range payload {
		payload[i] = float64(i)
	}
	const steps = 5
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wg.Writer(w)
			for s := int64(0); s < steps; s++ {
				if err := wr.BeginStep(s); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if err := wr.Write(VarMeta{Name: "p", Kind: ProcessGroupVar, ElemSize: 8},
					dcplugin.FloatsToBytes(payload)); err != nil {
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
	for s := int64(0); s < steps; s++ {
		step, ok := rd.BeginStep()
		if !ok || step != s {
			t.Fatalf("step %d ok=%v want %d", step, ok, s)
		}
		groups, err := rd.ReadProcessGroups("p")
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 2 {
			t.Fatalf("step %d: %d groups, want 2 (data lost to faults?)", s, len(groups))
		}
		for w, raw := range groups {
			got := dcplugin.BytesToFloats(raw)
			if len(got) != 64 || got[5] != 5 {
				t.Fatalf("step %d writer %d: corrupted payload", s, w)
			}
		}
		rd.EndStep()
	}
	writers.Wait()

	// Faults were actually injected and retried.
	var totalFaults int
	wrapMu.Lock()
	for _, c := range wrapped {
		totalFaults += evpath.FaultCount(c)
	}
	wrapMu.Unlock()
	if totalFaults == 0 {
		t.Fatal("no faults injected; test is vacuous")
	}
	if got := wm.Snapshot().Counts["send.retries"]; got < int64(totalFaults) {
		t.Fatalf("retries %d < faults %d", got, totalFaults)
	}
	wg.Close()
	rg.Close()
}

func TestPermanentFaultSurfaces(t *testing.T) {
	h := newHarness(t)
	opts := Options{
		SendRetries: 2,
		WrapConn: func(c evpath.Conn) evpath.Conn {
			return evpath.InjectFaults(c, 2) // every other send fails: retries exhaust
		},
	}
	// With failEvery=2 and 2 retries, a send sequence eventually hits
	// back-to-back faults... failEvery=2 faults sends 2,4,6 - retries at
	// 3,5 succeed. To force exhaustion, fail every send via nested wraps.
	opts.WrapConn = func(c evpath.Conn) evpath.Conn {
		inner := evpath.InjectFaults(c, 2)
		return evpath.InjectFaults(inner, 2) // combined: 3 of 4 sends fail
	}
	opts.SendRetries = -1 // disable retries entirely
	wg, err := NewWriterGroup(h.net, h.dir, "permfault", 1, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, "permfault", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd := rg.Reader(0)
	rd.SelectProcessGroups([]int{0})
	errCh := make(chan error, 1)
	go func() {
		wr := wg.Writer(0)
		wr.BeginStep(0)
		wr.Write(VarMeta{Name: "p", Kind: ProcessGroupVar, ElemSize: 8}, make([]byte, 64))
		errCh <- wr.EndStep()
	}()
	go rd.BeginStep() // unblock selections
	endErr := <-errCh
	if endErr == nil {
		t.Fatal("unretried transient fault must surface from EndStep")
	}
	// A sync flush's error is the stream's error too: Close reports it.
	if err := wg.Close(); !errors.Is(err, endErr) {
		t.Fatalf("Close = %v, want EndStep's error %v", err, endErr)
	}
	rg.Close()
}

func TestWriterMonitorReportShipped(t *testing.T) {
	wm := monitor.New("writers")
	wg, rg, rd := startPGStream(t, "monrep", 2, wm)
	payload := make([]float64, 64)
	done := writeStep(t, wg, 0, payload)
	if _, ok := rd.BeginStep(); !ok {
		t.Fatal("no step")
	}
	<-done
	rd.EndStep()
	// The report travels the coordinator channel asynchronously; wait
	// briefly for it.
	var rep monitor.Report
	var step int64
	var ok bool
	for i := 0; i < 200; i++ {
		rep, step, ok = rg.WriterReport()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !ok {
		t.Fatal("no writer report received")
	}
	if step != 0 {
		t.Fatalf("report step = %d", step)
	}
	if rep.Volumes["data.bytes"] == 0 {
		t.Fatalf("report missing stream volume: %+v", rep.Volumes)
	}
	wg.Close()
	rg.Close()
}
