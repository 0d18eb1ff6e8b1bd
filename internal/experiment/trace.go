package experiment

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"flexio/internal/core"
	"flexio/internal/coupled"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/flight"
	"flexio/internal/machine"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
	"flexio/internal/placement"
)

// TraceRun is the observability drill (`make trace`). Everything it
// shows comes from one record stream, the flight journal, plus the
// monitors' aggregates:
//
//   - a real 2x2 core stream driven through a mid-run reconfiguration
//     with writer- and reader-side monitors and one journal attached;
//     when serveAddr is non-empty a monitor.Server exposes them live and
//     the driver self-checks /metrics, /journal, /trace and /critpath
//     mid-reconfiguration — the "watch a running experiment re-place
//     itself" demo from Section II.G;
//   - the observation-steered coupled model, whose monitor drives the
//     helper-core -> staging switch;
//   - the switched coupled scenario journaled and cut into per-step
//     critical paths (critpathScenario).
//
// With dir non-empty it writes there trace.json (Chrome trace of both
// journals, one process lane each; load in ui.perfetto.dev),
// metrics.json (the merged report with per-point histograms),
// journal.json and critpath.json (the coupled scenario's journal and its
// analysis).
func TraceRun(dir, serveAddr string) (*Figure, error) {
	fig := &Figure{
		ID:     "TRACE",
		Title:  "One record stream: live step tracing, metrics and per-step critical paths",
		XLabel: "pipeline point",
		YLabel: "latency share",
	}

	wm := monitor.New("writers")
	rm := monitor.New("readers")
	cm := monitor.New("coupled")
	merged := func() monitor.Report {
		return monitor.Merge("flexio", wm.Snapshot(), rm.Snapshot(), cm.Snapshot())
	}

	fj := flight.NewJournal(0)

	var liveCheck string
	if serveAddr != "" {
		srv := monitor.NewServer(merged)
		srv.SetFlightSource(func() *flight.Journal { return fj })
		addr, err := srv.Start(serveAddr)
		if err != nil {
			return nil, fmt.Errorf("trace: live server: %w", err)
		}
		defer srv.Close() //nolint:errcheck
		fig.Notes = append(fig.Notes, "live metrics at http://"+addr+"/metrics (and /report, /journal, /trace, /critpath)")
		liveCheck = "http://" + addr
	}

	if err := traceStream(wm, rm, fj, liveCheck, fig); err != nil {
		return nil, err
	}
	if err := traceSteered(cm, fig); err != nil {
		return nil, err
	}
	cj, an, err := critpathScenario(fig)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"journals: live stream %d events, coupled scenario %d events", fj.Seen(), cj.Seen()))

	if dir == "" {
		return fig, nil
	}
	artifacts := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"trace.json", func(w io.Writer) error {
			return flight.WriteChromeTrace(w, flight.MergeDumps(flight.Dump(fj), flight.Dump(cj)))
		}},
		{"metrics.json", merged().WriteJSON},
		{"journal.json", func(w io.Writer) error { return flight.WriteJSON(w, cj) }},
		{"critpath.json", func(w io.Writer) error { return flight.WriteAnalysisJSON(w, an) }},
	}
	for _, a := range artifacts {
		path := filepath.Join(dir, a.name)
		if err := writeArtifact(path, a.write); err != nil {
			return nil, err
		}
		fig.Notes = append(fig.Notes, "wrote "+path)
	}
	return fig, nil
}

// traceStream runs the instrumented 2-writer / 2-reader stream: three
// steps over shm, a Reconfigure that moves both readers to node 1 (tcp
// over a loopback socket thereafter), three more steps. A pass-through
// reader plug-in keeps dc.plugin events on the analytics side of the
// trace; the flight journal rides along at every layer (core step chain,
// shm queue crossings, tcp frames). If liveCheck is non-empty, /metrics,
// /journal, /trace and /critpath are fetched mid-run and must already
// serve. Afterwards the transport-resource gauges (tcp frame and byte
// counters, shm pools/ring waits) are published into the writer monitor
// so they surface on /metrics.
func traceStream(wm, rm *monitor.Monitor, fj *flight.Journal, liveCheck string, fig *Figure) error {
	const nw, nr, pre, post = 2, 2, 3, 3
	net := evpath.NewNet(nil)
	if err := net.ServeLoopback(); err != nil {
		return err
	}
	defer net.CloseTCP()
	net.SetJournal(fj)
	dir := directory.NewMem()

	shape := []int64{64, 64}
	wdec, err := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nw, 2))
	if err != nil {
		return err
	}
	rdec, err := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nr, 2))
	if err != nil {
		return err
	}

	opts := core.Options{
		Transport: func(w, r int) (evpath.TransportKind, int, int) {
			return evpath.ShmTransport, 0, 0
		},
		WriterNode: func(w int) int { return 0 },
	}
	wg, err := core.NewWriterGroup(net, dir, "trace-demo", nw, opts, wm)
	if err != nil {
		return err
	}
	rg, err := core.NewReaderGroup(net, dir, "trace-demo", nr, rm)
	if err != nil {
		return err
	}
	wg.SetJournal(fj)
	rg.SetJournal(fj)
	rg.InstallNamedPlugin("passthrough", func(ev *evpath.Event) (*evpath.Event, error) { return ev, nil })

	errCh := make(chan error, nw+nr+1)
	var writers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wg.Writer(w)
			payload := make([]byte, wdec.Boxes[w].NumElements()*8)
			write := func(s int) error {
				if err := wr.BeginStep(int64(s)); err != nil {
					return err
				}
				if err := wr.Write(core.VarMeta{Name: "field", Kind: core.GlobalArrayVar,
					ElemSize: 8, GlobalShape: shape, Box: wdec.Boxes[w]}, payload); err != nil {
					return err
				}
				return wr.EndStep()
			}
			for s := 0; s < pre; s++ {
				if err := write(s); err != nil {
					errCh <- err
					return
				}
			}
			// Hold the step boundary until the reconfiguration is parked so
			// the epoch-2 steps really run under the new placement.
			for wg.SessionState() != core.StateReconfiguring {
				time.Sleep(100 * time.Microsecond)
			}
			for s := pre; s < pre+post; s++ {
				if err := write(s); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}

	consume := func(rd *core.Reader, from, to int) error {
		for s := from; s < to; s++ {
			step, ok := rd.BeginStep()
			if !ok || step != int64(s) {
				return fmt.Errorf("reader %d: step %d ok=%v want %d", rd.Rank, step, ok, s)
			}
			buf, _, err := rd.ReadArray("field")
			if err != nil {
				return err
			}
			rd.ReleaseArray(buf)
			if err := rd.EndStep(); err != nil {
				return err
			}
		}
		return nil
	}

	var phase sync.WaitGroup
	for r := 0; r < nr; r++ {
		r := r
		phase.Add(1)
		go func() {
			defer phase.Done()
			rd := rg.Reader(r)
			if err := rd.SelectArray("field", rdec.Boxes[r]); err != nil {
				errCh <- err
				return
			}
			if err := consume(rd, 0, pre); err != nil {
				errCh <- err
			}
		}()
	}
	phase.Wait()

	// Mid-run: the live endpoints must already serve while the stream is
	// between epochs — quantiles on /metrics, the causal journal (with
	// its stream fingerprint) on /journal, and a step-attributed path on
	// /critpath.
	if liveCheck != "" {
		body, err := httpGet(liveCheck + "/metrics")
		if err != nil {
			return fmt.Errorf("trace: mid-run /metrics: %w", err)
		}
		if !strings.Contains(body, "p95") {
			return fmt.Errorf("trace: mid-run /metrics lacks quantiles: %.80q", body)
		}
		fig.Notes = append(fig.Notes, "mid-run /metrics self-check: ok (quantiles served)")

		body, err = httpGet(liveCheck + "/journal")
		if err != nil {
			return fmt.Errorf("trace: mid-run /journal: %w", err)
		}
		if !strings.Contains(body, `"hash"`) || !strings.Contains(body, "writer.flush") {
			return fmt.Errorf("trace: mid-run /journal lacks events: %.80q", body)
		}
		body, err = httpGet(liveCheck + "/trace")
		if err != nil {
			return fmt.Errorf("trace: mid-run /trace: %w", err)
		}
		if !strings.Contains(body, "traceEvents") || !strings.Contains(body, "reader.assemble") {
			return fmt.Errorf("trace: mid-run /trace lacks events: %.80q", body)
		}
		body, err = httpGet(liveCheck + "/critpath")
		if err != nil {
			return fmt.Errorf("trace: mid-run /critpath: %w", err)
		}
		if !strings.Contains(body, "dominant") {
			return fmt.Errorf("trace: mid-run /critpath lacks analysis: %.80q", body)
		}
		fig.Notes = append(fig.Notes, "mid-run /journal + /trace + /critpath self-check: ok (flight recorder served)")
	}

	if err := rg.Reconfigure(core.ReconfigSpec{
		NReaders: nr,
		Arrays:   map[string][]ndarray.Box{"field": rdec.Boxes},
		Nodes:    []int{1, 1}, // move the analytics off-node: shm -> tcp
	}); err != nil {
		return err
	}

	for r := 0; r < nr; r++ {
		r := r
		phase.Add(1)
		go func() {
			defer phase.Done()
			if err := consume(rg.Reader(r), pre, pre+post); err != nil {
				errCh <- err
			}
		}()
	}
	writers.Wait()
	if err := wg.Close(); err != nil {
		return err
	}
	phase.Wait()
	rg.Close()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}

	// Transport-resource gauges onto /metrics: frame and byte counters
	// from the epoch-2 tcp phase, per-channel pool/ring counters from the
	// epoch-1 shm phase, and the core assembly pool's drain state (zero
	// in-use once every ReadArray buffer came back through ReleaseArray).
	net.ReportTCP(wm, "tcp.")
	net.ReportShm(wm, "shm")
	asm := rg.AsmPoolStats()
	rm.Set("core.asmpool.inuse", asm.BytesInUse)
	rm.Set("core.asmpool.highwater", asm.HighWater)
	ts := net.TCPStatsSnapshot()
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"transport gauges: tcp frames tx=%d rx=%d, bytes tx=%d, asm pool inuse=%d (highwater %d)",
		ts.MsgsTX, ts.MsgsRX, ts.BytesTX, asm.BytesInUse, asm.HighWater))

	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"stream: %d writers -> %d readers, %d+%d steps around a node-move reconfiguration", nw, nr, pre, post))
	return nil
}

// traceSteered runs the observation-steered coupled model (GTS on Smoky,
// growing analytics footprint) into the "coupled" monitor so the trace
// shows the virtual-time epochs on either side of the observed switch.
func traceSteered(cm *monitor.Monitor, fig *Figure) error {
	m := machine.Smoky(2)
	app := gtsApp()
	spec := gtsSpec(m, 4, 4, 1)
	simCore := []int{0, 1, 4, 5}
	helper := &placement.Placement{Spec: spec, Policy: "manual-helper",
		SimCore: simCore, AnaCore: []int{2, 3, 6, 7}}
	staging := &placement.Placement{Spec: spec, Policy: "manual-staging",
		SimCore: simCore, AnaCore: []int{16, 17, 18, 19}}
	for _, p := range []*placement.Placement{helper, staging} {
		if err := p.Validate(); err != nil {
			return err
		}
	}

	const steps = 10
	out, err := coupled.RunSteered(coupled.SteerConfig{
		First:          coupled.Config{App: app, Place: helper, Steps: steps},
		Second:         coupled.Config{App: app, Place: staging, Steps: steps},
		TotalSteps:     steps,
		AnaFootprintAt: func(s int) int64 { return int64(s) * 600_000 },
		Threshold:      1.02,
		Patience:       2,
		Mon:            cm,
	})
	if err != nil {
		return err
	}
	if out.Switched {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"steered coupled run: observed interference fired the helper-core -> staging switch at step %d (signal %.4f)",
			out.TriggerStep, out.Signals[len(out.Signals)-1]))
	} else {
		fig.Notes = append(fig.Notes, "steered coupled run: interference never crossed the threshold")
	}
	return nil
}

func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}

func httpGet(url string) (string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //nolint:errcheck
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return string(body), fmt.Errorf("status %s", resp.Status)
	}
	return string(body), nil
}
