package obsplane

import (
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"flexio/internal/directory"
	"flexio/internal/flight"
	"flexio/internal/monitor"
)

// scrapeTarget wires a live monitor and journal behind a real
// monitor.Server handler in httptest, registered in a Mem directory under
// the obs! namespace — the exact shape a flexnode exposes to the
// collector.
type scrapeTarget struct {
	mon *monitor.Monitor
	jrn *flight.Journal
	srv *httptest.Server
}

// newScrapeTarget builds a target whose journal holds capacity events
// (<= 0 selects flight.DefaultCapacity).
func newScrapeTarget(t *testing.T, dir *directory.Mem, name string, capacity int) *scrapeTarget {
	t.Helper()
	st := &scrapeTarget{mon: monitor.New(name), jrn: flight.NewJournal(capacity)}
	st.mon.SetIdentity(name, "")
	st.jrn.SetIdentity(name, "")
	msrv := monitor.NewServer(func() monitor.Report { return st.mon.Snapshot() })
	msrv.SetFlightSource(func() *flight.Journal { return st.jrn })
	st.srv = httptest.NewServer(msrv.Handler())
	t.Cleanup(st.srv.Close)
	if err := dir.Register(DefaultPrefix+name, st.srv.URL); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return st
}

// stage records one finished data-path stage the way the data plane
// does: journaled, and its duration folded into the monitor histogram.
func (st *scrapeTarget) stage(scope string, step int64, point string, start, dur float64) {
	st.jrn.Record(flight.Event{Kind: flight.KindCompute, Point: point, Scope: scope, Step: step, T: start, Dur: dur})
	st.mon.Observe(point, dur)
}

// TestCollectorWindowingNoDoubleCount: three sweeps over a journal that
// records events between them must accumulate every event exactly once —
// the cursor window, not re-reading the whole ring, decides what is new.
// The ring holds less than the total, so the window, not the ring size,
// is what keeps the count exact.
func TestCollectorWindowingNoDoubleCount(t *testing.T) {
	dir := directory.NewMem()
	defer dir.Close()
	tgt := newScrapeTarget(t, dir, "wd0", 8)
	c := New(dir, Options{})
	defer c.Close() //nolint:errcheck

	total := 0
	for sweep := 0; sweep < 3; sweep++ {
		for i := 0; i < 5; i++ {
			tgt.stage("acme/gts", int64(total), "writer.flush", float64(total), 0.001)
			total++
		}
		if err := c.Sweep(); err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		// Sweep the same state again: the cursor did not move, so nothing
		// new may be ingested.
		if err := c.Sweep(); err != nil {
			t.Fatalf("re-sweep %d: %v", sweep, err)
		}
	}
	snap := c.Snapshot()
	if len(snap.Daemons) != 1 {
		t.Fatalf("daemons = %d, want 1", len(snap.Daemons))
	}
	d := snap.Daemons[0]
	if d.Gap != 0 || d.Dropped != 0 || d.Cursor != int64(total) {
		t.Fatalf("gap=%d dropped=%d cursor=%d, want 0, 0 and %d", d.Gap, d.Dropped, d.Cursor, total)
	}
	stitched := 0
	for _, st := range snap.Steps {
		stitched += st.Events
	}
	if stitched != total {
		t.Fatalf("stitched %d events, want %d (double-counted or lost)", stitched, total)
	}
}

// TestCollectorGapDetection: a journal ring smaller than the inter-sweep
// recording burst must surface the evicted events as an explicit
// per-daemon gap with exact cursor math, not silently absorb them; and a
// collector store smaller than what it ingested counts its own evictions
// as Dropped, just as exactly.
func TestCollectorGapDetection(t *testing.T) {
	dir := directory.NewMem()
	defer dir.Close()
	tgt := newScrapeTarget(t, dir, "wd0", 4)
	c := New(dir, Options{EventCap: 6})
	defer c.Close() //nolint:errcheck

	for i := 0; i < 10; i++ {
		tgt.stage("acme/gts", int64(i), "writer.flush", float64(i), 0.001)
	}
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		tgt.stage("acme/gts", int64(i), "writer.flush", float64(i), 0.001)
	}
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	d := snap.Daemons[0]
	// Each burst of 10 leaves a 4-deep ring: 6 evicted before the sweep.
	if d.Gap != 12 {
		t.Fatalf("gap = %d, want 12 (6 evicted per burst)", d.Gap)
	}
	if d.Cursor != 20 {
		t.Fatalf("cursor = %d, want 20", d.Cursor)
	}
	// Steps 6-9 and 16-19 ingested into a 6-event store: the 2 oldest
	// dropped, and the stitched table holds exactly the newest 6 steps.
	if d.Dropped != 2 || len(snap.Steps) != 6 || snap.Steps[0].Step != 8 {
		t.Fatalf("dropped = %d, stitched %d steps from %d; want 2, 6 from step 8", d.Dropped, len(snap.Steps), snap.Steps[0].Step)
	}
}

// TestCollectorNeverIngestsOpenEvents: a scrape while a writer.flush is
// still open must not see it (events enter the journal when they end);
// the next scrape takes it exactly once, with its final duration, and
// the stitched step's latency is that duration.
func TestCollectorNeverIngestsOpenEvents(t *testing.T) {
	dir := directory.NewMem()
	defer dir.Close()
	tgt := newScrapeTarget(t, dir, "wd0", 0)
	clk := &stepClock{t: 1}
	tgt.jrn.SetClock(clk)
	c := New(dir, Options{})
	defer c.Close() //nolint:errcheck

	const scope = "acme/gts"
	flush := tgt.jrn.Begin(tgt.mon, flight.Event{Kind: flight.KindCompute, Point: "writer.flush", Scope: scope})
	pack := tgt.jrn.Begin(tgt.mon, flight.Event{Kind: flight.KindCompute, Point: "writer.pack", Scope: scope, Parent: flush.ID()})
	clk.t = 1.2
	pack.End()
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	flushes := func() (n int, dur float64) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, st := range c.daemons {
			for _, ev := range st.events {
				if ev.Point == "writer.flush" {
					n++
					dur = ev.Dur
				}
			}
		}
		return n, dur
	}
	if n, _ := flushes(); n != 0 {
		t.Fatalf("open flush ingested %d times before it ended", n)
	}

	clk.t = 1.5
	flush.End()
	for i := 0; i < 2; i++ { // the second sweep must not re-ingest it
		if err := c.Sweep(); err != nil {
			t.Fatal(err)
		}
	}
	n, dur := flushes()
	if n != 1 || dur != 0.5 {
		t.Fatalf("flush ingested %d times with Dur %v, want once with 0.5", n, dur)
	}
	steps := c.Snapshot().Steps
	if len(steps) != 1 || steps[0].Latency != dur || steps[0].Events != 2 {
		t.Fatalf("stitched %+v, want one step of latency %v from 2 events", steps, dur)
	}
}

// stepClock is a hand-advanced flight.Clock.
type stepClock struct{ t float64 }

func (c *stepClock) Now() float64 { return c.t }

// TestCollectorStitchAcrossDaemons: a writer daemon's send event and a
// reader daemon's assemble event of the same {scope, step} must join
// into one cross-process step whose envelope spans both.
func TestCollectorStitchAcrossDaemons(t *testing.T) {
	dir := directory.NewMem()
	defer dir.Close()
	wd := newScrapeTarget(t, dir, "wd0", 0)
	rd := newScrapeTarget(t, dir, "rd0", 0)
	c := New(dir, Options{})
	defer c.Close() //nolint:errcheck

	const scope = "acme/gts"
	for s := int64(0); s < 3; s++ {
		base := float64(s)
		wd.stage(scope, s, "writer.flush", base, 0.010)
		wd.stage(scope, s, "send.tcp", base+0.002, 0.003)
		rd.stage(scope, s, "reader.assemble", base+0.006, 0.008)
	}
	// Housekeeping events outside any stream must not leak into steps.
	wd.stage("", 0, "node.heartbeat", 0, 0.001)
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if len(snap.Steps) != 3 {
		t.Fatalf("stitched %d steps, want 3: %+v", len(snap.Steps), snap.Steps)
	}
	for i, st := range snap.Steps {
		if st.Scope != scope || st.Tenant != "acme" || st.Stream != "gts" {
			t.Fatalf("step %d scope split = %q/%q (%q)", i, st.Tenant, st.Stream, st.Scope)
		}
		if !st.CrossProcess || len(st.Daemons) != 2 {
			t.Fatalf("step %d not cross-process: daemons=%v", i, st.Daemons)
		}
		base := float64(st.Step)
		if st.Start != base || st.Finish != base+0.014 {
			t.Fatalf("step %d envelope [%v, %v], want [%v, %v]",
				i, st.Start, st.Finish, base, base+0.014)
		}
	}
	// The merged fleet report must carry both processes' histograms.
	if snap.Report.Timings["send.tcp"].Count != 3 || snap.Report.Timings["reader.assemble"].Count != 3 {
		t.Fatalf("fleet merge lost timings: %v", snap.Report.Timings)
	}
	if len(snap.Report.Origins) != 2 {
		t.Fatalf("fleet origins = %v, want both daemons", snap.Report.Origins)
	}
}

// TestCollectorDeadDaemonBackoff: a dead scrape target fails its own
// slot and is skipped until its backoff elapses; the live daemon's
// scrape must be unaffected in the same sweep.
func TestCollectorDeadDaemonBackoff(t *testing.T) {
	dir := directory.NewMem()
	defer dir.Close()
	live := newScrapeTarget(t, dir, "wd0", 0)
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	if err := dir.Register(DefaultPrefix+"wd1", deadURL); err != nil {
		t.Fatal(err)
	}
	c := New(dir, Options{Timeout: 250 * time.Millisecond, Backoff: 100 * time.Millisecond})
	defer c.Close() //nolint:errcheck

	live.stage("acme/gts", 0, "writer.flush", 0, 0.001)
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	var liveSt, deadSt DaemonStatus
	for _, d := range c.Snapshot().Daemons {
		switch d.Key {
		case DefaultPrefix + "wd0":
			liveSt = d
		case DefaultPrefix + "wd1":
			deadSt = d
		}
	}
	if !liveSt.Alive || liveSt.Cursor != 1 {
		t.Fatalf("live daemon not scraped alongside the dead one: %+v", liveSt)
	}
	if deadSt.Alive || deadSt.Failures != 1 || deadSt.LastErr == "" {
		t.Fatalf("dead daemon state = %+v, want failed once", deadSt)
	}
	// Within the backoff window the dead daemon is not re-dialed.
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Snapshot().Daemons {
		if d.Key == DefaultPrefix+"wd1" && d.Failures != 1 {
			t.Fatalf("dead daemon re-scraped inside backoff: %+v", d)
		}
	}
	time.Sleep(120 * time.Millisecond)
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Snapshot().Daemons {
		if d.Key == DefaultPrefix+"wd1" && d.Failures != 2 {
			t.Fatalf("dead daemon not retried after backoff: %+v", d)
		}
	}
}

// TestCollectorSLOBreachLatch: a tenant persistently over its latency
// target trips the breach exactly once (the latch), re-arms on
// recovery, and a healthy tenant never fires.
func TestCollectorSLOBreachLatch(t *testing.T) {
	dir := directory.NewMem()
	defer dir.Close()
	tgt := newScrapeTarget(t, dir, "rd0", 0)
	var fires atomic.Int64
	c := New(dir, Options{
		SLOs: []SLO{
			{Tenant: "lag", Target: 5 * time.Millisecond, Budget: 0.2, Window: 8},
			{Tenant: "acme", Target: time.Second},
		},
		OnBreach: func(s SLOStatus) {
			if s.Tenant != "lag" {
				t.Errorf("breach fired for %q", s.Tenant)
			}
			fires.Add(1)
		},
	})
	defer c.Close() //nolint:errcheck

	step := int64(0)
	slowSteps := func(n int) {
		for i := 0; i < n; i++ {
			tgt.stage("lag/gts", step, "reader.assemble", float64(step), 0.025)
			tgt.stage("acme/gts", step, "reader.assemble", float64(step), 0.001)
			step++
		}
	}
	slowSteps(4)
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	slowSteps(4)
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	if got := fires.Load(); got != 1 {
		t.Fatalf("breach fired %d times across persistent violation, want latched 1", got)
	}
	var lag SLOStatus
	for _, s := range c.SLOStatuses() {
		if s.Tenant == "lag" {
			lag = s
		}
	}
	if !lag.Breached || lag.Episodes != 1 || lag.Violations != lag.Steps {
		t.Fatalf("lag status = %+v", lag)
	}
	if lag.BurnRate < 1.0/0.2-0.01 {
		t.Fatalf("burn rate = %v, want ~%v (all steps violating / 0.2 budget)", lag.BurnRate, 1.0/0.2)
	}

	// Recovery: eight fast steps fill the window, the latch re-arms, and
	// a later relapse fires a second episode.
	for i := 0; i < 8; i++ {
		tgt.stage("lag/gts", step, "reader.assemble", float64(step), 0.001)
		step++
	}
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.SLOStatuses() {
		if s.Tenant == "lag" && s.Breached {
			t.Fatalf("lag still breached after recovery: %+v", s)
		}
	}
	for i := 0; i < 8; i++ {
		tgt.stage("lag/gts", step, "reader.assemble", float64(step), 0.025)
		step++
	}
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	if got := fires.Load(); got != 2 {
		t.Fatalf("relapse fired %d total episodes, want 2", got)
	}
}

// TestCollectorCritPathCrossesProcess: journals scraped from a writer
// and a reader daemon, joined only by the "w0>r0" channel string, must
// yield a stitched critical path whose edges live in two rank lanes.
func TestCollectorCritPathCrossesProcess(t *testing.T) {
	dir := directory.NewMem()
	defer dir.Close()
	wd := newScrapeTarget(t, dir, "wd0", 0)
	rd := newScrapeTarget(t, dir, "rd0", 0)
	c := New(dir, Options{})
	defer c.Close() //nolint:errcheck

	const scope = "acme/gts"
	p := wd.jrn.Record(flight.Event{Kind: flight.KindCompute, Point: "writer.flush", Scope: scope, T: 1.0, Dur: 0.010, Step: 0})
	wd.jrn.Record(flight.Event{Kind: flight.KindSend, Point: "send.tcp", Channel: "w0>r0", Scope: scope, Parent: p, T: 1.010, Dur: 0.005, Step: 0, Bytes: 4096})
	q := rd.jrn.Record(flight.Event{Kind: flight.KindRecv, Point: "reader.accept", Channel: "w0>r0", Scope: scope, T: 1.016, Step: 0, Bytes: 4096})
	rd.jrn.Record(flight.Event{Kind: flight.KindCompute, Point: "reader.assemble", Scope: scope, Parent: q, T: 1.016, Dur: 0.008, Step: 0})
	if err := c.Sweep(); err != nil {
		t.Fatal(err)
	}
	paths := c.CritPaths()
	an, ok := paths[scope]
	if !ok || len(an.Steps) != 1 {
		t.Fatalf("critpath analyses = %+v, want one step for %q", paths, scope)
	}
	sp := &an.Steps[0]
	if !flight.CrossesProcess(sp) {
		t.Fatalf("critical path does not cross a process boundary: %v", sp)
	}
	var sawTCP bool
	for _, e := range sp.Edges {
		if e.Point == "send.tcp" {
			sawTCP = true
		}
	}
	if !sawTCP {
		t.Fatalf("no tcp edge on the stitched path: %v", sp.Edges)
	}
}
