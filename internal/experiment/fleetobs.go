package experiment

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"flexio/internal/core"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/fabric"
	"flexio/internal/flexnode"
	"flexio/internal/flight"
	"flexio/internal/machine"
	"flexio/internal/ndarray"
	"flexio/internal/obsplane"
)

// The fleet observability drill: a real directory server, four flexnode
// daemons (two writer-side, two reader-side), two tenants streaming over
// TCP between them, and a fleet collector discovering the daemons
// through their leased obs! registrations and scraping their /report and
// /journal endpoints over real HTTP. The drill asserts the observability
// plane's end-to-end claims exactly:
//
//   - every step each tenant wrote appears exactly once in the stitched
//     fleet view, and the count matches the writer-side flight journals
//     (no event double-counted or lost across sweeps — windowed by each
//     journal's Seen cursor);
//   - the stitched critical path of a step crosses the process boundary
//     through a send.tcp edge (writer daemon -> reader daemon, joined
//     only by the wire-stable channel string);
//   - the deliberately slow tenant burns through its latency SLO, the
//     breach latch fires exactly one episode, and that fleet-level
//     evidence drives a fabric resize + live reader reconfiguration;
//   - the healthy tenant's SLO never fires.
const (
	fleetobsSteps  = 12
	fleetobsPhaseA = 8
)

// fleetTenant is the per-tenant state of the drill.
type fleetTenant struct {
	id    string
	idx   int
	wd    *flexnode.Daemon // hosts the writer group
	rd    *flexnode.Daemon // hosts the reader group
	grant *fabric.Grant
	wg    *core.WriterGroup
	rg    *core.ReaderGroup
	shape []int64
}

// Fleetobs runs the fleet observability drill.
func Fleetobs() (*Figure, error) {
	// Discovery runs over the real wire protocol: daemons lease their
	// scrape endpoints against a TCP directory server, and the collector
	// lists them with the LST verb — the same path a deployed fleet uses.
	mem := directory.NewMem()
	defer mem.Close() //nolint:errcheck
	dsrv, err := directory.Serve("127.0.0.1:0", mem)
	if err != nil {
		return nil, err
	}
	defer dsrv.Close() //nolint:errcheck
	dirc := &directory.Client{Addr: dsrv.Addr()}

	pool := machine.Titan(4)
	fab := fabric.New(pool)
	defer fab.Close()

	daemon := func(name string) (*flexnode.Daemon, error) {
		return flexnode.Start(flexnode.Config{
			Name: name, Dir: dirc,
			LeaseTTL:    2 * time.Second,
			MetricsAddr: "127.0.0.1:0",
		})
	}
	names := []string{"wd0", "wd1", "rd0", "rd1"}
	ds := make(map[string]*flexnode.Daemon, len(names))
	for _, n := range names {
		d, err := daemon(n)
		if err != nil {
			return nil, fmt.Errorf("fleetobs: daemon %s: %w", n, err)
		}
		ds[n] = d
		defer d.Close() //nolint:errcheck
	}

	tcp := func(w, r int) (evpath.TransportKind, int, int) {
		return evpath.TCPTransport, 0, 0
	}
	tenants := []*fleetTenant{
		{id: "acme", idx: 0, wd: ds["wd0"], rd: ds["rd0"], shape: []int64{32, 32}},
		{id: "lag", idx: 1, wd: ds["wd1"], rd: ds["rd1"], shape: []int64{32, 32}},
	}
	for _, t := range tenants {
		t.grant, err = fab.Admit(fabric.Request{Tenant: t.id, NSim: 1, NAna: 1, SimThreads: 1, Block: true})
		if err != nil {
			return nil, fmt.Errorf("fleetobs: admit %s: %w", t.id, err)
		}
		t.wg, err = core.NewWriterGroup(t.wd.Net, dirc, "gts", 1,
			core.Options{Tenant: t.id, Transport: tcp}, t.wd.Mon)
		if err != nil {
			return nil, fmt.Errorf("fleetobs: writer group %s: %w", t.id, err)
		}
		t.wg.SetJournal(t.wd.Jrn)
		t.rg, err = core.NewReaderGroupOpts(t.rd.Net, dirc, "gts", 1,
			core.ReaderOptions{Tenant: t.id}, t.rd.Mon)
		if err != nil {
			return nil, fmt.Errorf("fleetobs: reader group %s: %w", t.id, err)
		}
		t.rg.SetJournal(t.rd.Jrn)
	}

	// The collector: jittered background sweeps against the live fleet,
	// with a tight latency objective on the slow tenant and a lenient one
	// on the healthy tenant (which must never fire).
	const lagTarget = 5 * time.Millisecond
	breachCh := make(chan obsplane.SLOStatus, 8)
	col := obsplane.New(dirc, obsplane.Options{
		Interval: 25 * time.Millisecond,
		SLOs: []obsplane.SLO{
			{Tenant: "lag", Target: lagTarget, Budget: 0.2, Window: 8},
			{Tenant: "acme", Target: time.Second},
		},
		OnBreach: func(s obsplane.SLOStatus) {
			select {
			case breachCh <- s:
			default:
			}
		},
	})
	col.Start()
	defer col.Close() //nolint:errcheck
	fleetAddr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	var all, phaseALag sync.WaitGroup
	errCh := make(chan error, 16)

	// Writers: acme streams all 12 steps; lag writes phase A, then holds
	// its step boundary until the SLO-driven Reconfigure is parked (the
	// phase-B writes drive the drain/ack handshake).
	for _, t := range tenants {
		t := t
		all.Add(1)
		go func() {
			defer all.Done()
			wr := t.wg.Writer(0)
			payload := make([]byte, t.shape[0]*t.shape[1]*8)
			write := func(s int) error {
				fillTenantPayload(payload, t.idx, s)
				if err := wr.BeginStep(int64(s)); err != nil {
					return err
				}
				if err := wr.Write(core.VarMeta{Name: "field", Kind: core.GlobalArrayVar,
					ElemSize: 8, GlobalShape: t.shape,
					Box: ndarray.NewBox([]int64{0, 0}, t.shape)}, payload); err != nil {
					return err
				}
				return wr.EndStep()
			}
			for s := 0; s < fleetobsPhaseA; s++ {
				if err := write(s); err != nil {
					errCh <- fmt.Errorf("tenant %s writer: %w", t.id, err)
					return
				}
				time.Sleep(time.Millisecond)
			}
			if t.id == "lag" {
				for t.wg.SessionState() != core.StateReconfiguring {
					time.Sleep(100 * time.Microsecond)
				}
			}
			for s := fleetobsPhaseA; s < fleetobsSteps; s++ {
				if err := write(s); err != nil {
					errCh <- fmt.Errorf("tenant %s writer: %w", t.id, err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// Readers: acme consumes everything on its single rank; lag's
	// pre-resize rank drains phase A slowly — 25ms of analysis per step
	// against a 5ms objective is what burns the SLO.
	for _, t := range tenants {
		t := t
		to, slack := fleetobsSteps, time.Duration(0)
		if t.id == "lag" {
			to, slack = fleetobsPhaseA, 25*time.Millisecond
			phaseALag.Add(1)
		}
		all.Add(1)
		go func() {
			defer all.Done()
			if t.id == "lag" {
				defer phaseALag.Done()
			}
			rd := t.rg.Reader(0)
			if err := rd.SelectArray("field", ndarray.NewBox([]int64{0, 0}, t.shape)); err != nil {
				errCh <- fmt.Errorf("tenant %s reader: %w", t.id, err)
				return
			}
			if err := tenantConsume(rd, t.idx, 0, to, slack); err != nil {
				errCh <- err
			}
		}()
	}

	// Steering: wait for the fleet-level breach evidence (background
	// sweeps normally deliver it mid-phase-A; the fallback sweeps only
	// guard against scheduler starvation), then let the slow tenant's
	// phase-A drain finish and apply the SLO-driven resize.
	var breach obsplane.SLOStatus
	deadline := time.After(30 * time.Second)
waitBreach:
	for {
		select {
		case breach = <-breachCh:
			break waitBreach
		case <-deadline:
			return nil, fmt.Errorf("fleetobs: SLO breach never fired for tenant lag")
		case <-time.After(25 * time.Millisecond):
			if err := col.Sweep(); err != nil {
				return nil, err
			}
		}
	}
	if breach.Tenant != "lag" {
		return nil, fmt.Errorf("fleetobs: breach fired for %q, want lag", breach.Tenant)
	}
	phaseALag.Wait()

	lag := tenants[1]
	delta, err := fab.Resize(lag.grant, 2)
	if err != nil {
		return nil, fmt.Errorf("fleetobs: fabric resize on breach: %w", err)
	}
	dec, err := ndarray.BlockDecompose(lag.shape, ndarray.FactorGrid(2, 2))
	if err != nil {
		return nil, err
	}
	if err := lag.rg.Reconfigure(core.ReconfigSpec{
		NReaders: 2,
		Arrays:   map[string][]ndarray.Box{"field": dec.Boxes},
		Nodes:    delta.AnaNodes,
	}); err != nil {
		return nil, fmt.Errorf("fleetobs: reconfigure after breach: %w", err)
	}
	// Post-resize ranks drain phase B at full speed.
	for r := 0; r < 2; r++ {
		r := r
		all.Add(1)
		go func() {
			defer all.Done()
			if err := tenantConsume(lag.rg.Reader(r), lag.idx, fleetobsPhaseA, fleetobsSteps, 0); err != nil {
				errCh <- err
			}
		}()
	}

	all.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return nil, err
		}
	}

	// One final synchronous sweep so the snapshot covers the last events,
	// then the assertions — all against live scrapes of the still-running
	// daemons.
	if err := col.Sweep(); err != nil {
		return nil, err
	}
	snap := col.Snapshot()

	fig := &Figure{
		ID:     "FLEETOBS",
		Title:  "Fleet observability: cross-process stitching, SLO burn, fleet-evidence resize",
		XLabel: "step",
		YLabel: "stitched end-to-end latency (ms)",
	}

	// (1) Exact stitched step accounting vs the writer-side journals.
	for _, t := range tenants {
		scope := directory.Qualify(t.id, "gts")
		flushes := map[int64]int{}
		for _, ev := range t.wd.Jrn.Snapshot() {
			if ev.Point == "writer.flush" && ev.Scope == scope {
				flushes[ev.Step]++
			}
		}
		for s := int64(0); s < fleetobsSteps; s++ {
			if flushes[s] != 1 {
				return nil, fmt.Errorf("tenant %s: journal shows step %d flushed %d times, want 1", t.id, s, flushes[s])
			}
		}
		series := Series{Label: t.id + " stitched latency"}
		stitched := 0
		for _, st := range snap.Steps {
			if st.Scope != scope {
				continue
			}
			stitched++
			series.X = append(series.X, float64(st.Step))
			series.Y = append(series.Y, st.Latency*1e3)
			if !st.CrossProcess {
				return nil, fmt.Errorf("tenant %s step %d stitched from one process only (%v)", t.id, st.Step, st.Daemons)
			}
		}
		if stitched != len(flushes) || stitched != fleetobsSteps {
			return nil, fmt.Errorf("tenant %s: %d stitched steps vs %d journal-verified, want %d",
				t.id, stitched, len(flushes), fleetobsSteps)
		}
		fig.Series = append(fig.Series, series)
	}

	// (2) No event gaps or collector-side drops on any daemon.
	if len(snap.Daemons) != len(names) {
		return nil, fmt.Errorf("collector sees %d daemons, want %d: %+v", len(snap.Daemons), len(names), snap.Daemons)
	}
	for _, d := range snap.Daemons {
		if !d.Alive || d.Gap != 0 || d.Dropped != 0 {
			return nil, fmt.Errorf("daemon %s: alive=%v gap=%d dropped=%d, want live and gapless", d.Key, d.Alive, d.Gap, d.Dropped)
		}
	}

	// (3) The stitched critical path crosses the process boundary over a
	// tcp edge for every tenant.
	paths := col.CritPaths()
	for _, t := range tenants {
		scope := directory.Qualify(t.id, "gts")
		an, ok := paths[scope]
		if !ok || len(an.Steps) == 0 {
			return nil, fmt.Errorf("tenant %s: no stitched critical path", t.id)
		}
		crossed := 0
		for i := range an.Steps {
			sp := &an.Steps[i]
			if !flight.CrossesProcess(sp) {
				continue
			}
			for _, e := range sp.Edges {
				if e.Point == "send.tcp" {
					crossed++
					break
				}
			}
		}
		if crossed == 0 {
			return nil, fmt.Errorf("tenant %s: no step's critical path crosses a process via send.tcp", t.id)
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf("tenant %s: %d/%d stitched critical paths cross wd->rd over send.tcp",
			t.id, crossed, len(an.Steps)))
	}

	// (4) SLO outcomes: lag breached exactly one episode, acme never.
	for _, s := range col.SLOStatuses() {
		switch s.Tenant {
		case "lag":
			if s.Episodes != 1 {
				return nil, fmt.Errorf("lag SLO episodes = %d, want exactly 1 (latched)", s.Episodes)
			}
		case "acme":
			if s.Episodes != 0 || s.Breached {
				return nil, fmt.Errorf("acme SLO fired: %+v", s)
			}
		}
	}
	if n := lag.rg.NReaders; n != 2 {
		return nil, fmt.Errorf("lag readers = %d after SLO-driven resize, want 2", n)
	}
	if c := lag.rd.Mon.Snapshot().Counts["reconfig.count"]; c != 1 {
		return nil, fmt.Errorf("lag reconfig.count = %d, want 1", c)
	}

	// (5) The fleet HTTP surface serves the same SLO verdicts.
	resp, err := http.Get("http://" + fleetAddr + "/fleet/slo") //nolint:noctx // drill-local server
	if err != nil {
		return nil, err
	}
	var served []obsplane.SLOStatus
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close() //nolint:errcheck
	if err != nil || len(served) != 2 {
		return nil, fmt.Errorf("/fleet/slo served %d objectives (err %v), want 2", len(served), err)
	}

	for _, t := range tenants {
		if err := t.wg.Close(); err != nil {
			return nil, fmt.Errorf("close writer %s: %w", t.id, err)
		}
		t.rg.Close() //nolint:errcheck
		fab.Release(t.grant)
	}

	fig.Notes = append(fig.Notes,
		fmt.Sprintf("%d daemons discovered via leased obs! directory entries over the wire protocol", len(names)),
		fmt.Sprintf("lag tenant burned %.1fx its %v step objective (%d/%d violations) -> breach -> fabric resize 1->2 readers",
			breach.BurnRate, lagTarget, breach.Violations, breach.Steps),
		fmt.Sprintf("%d event gaps across %d daemons over %d sweeps (journal-cursor-windowed scrapes)", 0, len(names), snap.Sweeps),
	)
	return fig, nil
}
