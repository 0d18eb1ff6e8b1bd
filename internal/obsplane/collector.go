// Package obsplane is FlexIO's fleet observability plane: a collector
// that discovers the live daemons of a deployment through the external
// directory, scrapes each one's monitor endpoints on a jittered
// interval, and merges what it finds into a single fleet view —
// fleet-wide metric histograms, cross-process stitched step traces,
// stitched critical paths that cross the tcp seam between writer and
// reader daemons, and per-tenant SLO burn rates whose breaches can
// steer the resource fabric.
//
// Discovery rides the same lease machinery the data plane uses: each
// flexnode registers its monitor HTTP address under the "obs!"
// namespace with its liveness TTL, so listing that prefix always names
// exactly the live fleet — a crashed daemon's scrape target decays with
// its lease instead of black-holing sweeps forever.
//
// Each daemon is scraped with its own timeout and failure backoff, so
// one dead or wedged node delays only its own slot, never the sweep.
// Two endpoints per daemon: /report (aggregates) and /journal (the
// per-step event record). Journal scraping is windowed by the dump's
// monotonic Seen cursor (flight.JournalDump): the collector keeps the
// cursor of its previous sweep per daemon and takes exactly the events
// completed since, counting ring evictions it never saw as an explicit
// per-daemon gap instead of silently double-counting or missing events
// between sweeps. One event store per daemon feeds both the stitched
// step table and the stitched critical paths.
//
// Cross-process correlation assumes the scraped processes share a
// comparable time base (in-process drills trivially do; a real
// deployment needs synchronized clocks, and skew surfaces as inflated
// wait edges in stitched critical paths).
package obsplane

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"flexio/internal/flight"
	"flexio/internal/monitor"
)

// DefaultPrefix is the directory namespace the collector lists for
// scrape targets. It must match the namespace flexnode daemons lease
// their metrics addresses under (flexnode.ObsNamespace).
const DefaultPrefix = "obs!"

// Discoverer lists live directory bindings under a prefix.
// directory.Mem and directory.Client both satisfy it (the Lister
// extension).
type Discoverer interface {
	List(prefix string) (map[string]string, error)
}

// Options configures a Collector. The zero value selects the defaults
// noted per field.
type Options struct {
	// Prefix is the directory namespace listed for scrape targets
	// (default DefaultPrefix).
	Prefix string
	// Interval is the background sweep period (default 100ms). Each
	// sweep's sleep is jittered by ±Jitter so a fleet of collectors
	// never phase-locks onto the daemons.
	Interval time.Duration
	// Jitter is the sweep-interval jitter fraction in [0, 1)
	// (default 0.2).
	Jitter float64
	// Timeout bounds each daemon's scrape — both endpoint fetches
	// together (default 2s). A daemon that exceeds it counts as failed
	// for the sweep; the others are unaffected.
	Timeout time.Duration
	// Backoff is how long a failed daemon is skipped before it is
	// scraped again (default 500ms).
	Backoff time.Duration
	// EventCap bounds the per-daemon accumulated event store (default
	// 1<<16); overflow drops oldest events and is counted per daemon.
	EventCap int
	// SLOs are the per-tenant latency objectives evaluated after every
	// sweep.
	SLOs []SLO
	// OnBreach, when set, is called once per breach episode (the latch
	// re-arms when the tenant recovers). Called outside the collector
	// lock.
	OnBreach func(SLOStatus)
	// Client is the HTTP client used for scrapes (default a dedicated
	// client; the per-daemon Timeout is enforced via request contexts
	// either way).
	Client *http.Client
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Prefix == "" {
		out.Prefix = DefaultPrefix
	}
	if out.Interval <= 0 {
		out.Interval = 100 * time.Millisecond
	}
	if out.Jitter <= 0 || out.Jitter >= 1 {
		out.Jitter = 0.2
	}
	if out.Timeout <= 0 {
		out.Timeout = 2 * time.Second
	}
	if out.Backoff <= 0 {
		out.Backoff = 500 * time.Millisecond
	}
	if out.EventCap <= 0 {
		out.EventCap = 1 << 16
	}
	if out.Client == nil {
		out.Client = &http.Client{}
	}
	return out
}

// daemonState is the collector's per-daemon bookkeeping.
type daemonState struct {
	key, url     string
	alive        bool
	failures     int    // consecutive scrape failures
	lastErr      string // most recent scrape error ("" after a success)
	backoffUntil time.Time

	lastCursor   int64          // journal Seen after the previous successful scrape
	gap          int64          // events evicted by the daemon's ring before we saw them
	localDropped int64          // events we dropped to our own EventCap
	origin       string         // the journal's daemon identity, for attribution
	events       []flight.Event // windowed, each ingested exactly once
	report       monitor.Report // last good report
	hasReport    bool
}

// DaemonStatus is the exported per-daemon health row.
type DaemonStatus struct {
	Key      string `json:"key"`
	URL      string `json:"url"`
	Alive    bool   `json:"alive"`
	Failures int    `json:"failures"`
	LastErr  string `json:"last_error,omitempty"`
	// Cursor is the daemon's journal cursor (JournalDump.Seen) at the
	// last successful scrape; Gap counts events its ring evicted between
	// sweeps (never scraped), Dropped counts events the collector evicted
	// to its own EventCap.
	Cursor  int64 `json:"cursor"`
	Gap     int64 `json:"gap"`
	Dropped int64 `json:"dropped,omitempty"`
}

// FleetSnapshot is one consistent view of the merged fleet state.
type FleetSnapshot struct {
	Sweeps  int64          `json:"sweeps"`
	Daemons []DaemonStatus `json:"daemons"`
	// Report is the fleet-merged monitor report (monitor.Merge
	// semantics: histograms merge bucket-wise, counters sum, gauges
	// max). The stitched Steps own per-step detail, built from the
	// windowed event stores so nothing is double-counted.
	Report monitor.Report `json:"report"`
	Steps  []StitchedStep `json:"steps"`
	SLOs   []SLOStatus    `json:"slos,omitempty"`
}

// Collector is the fleet observability collector.
type Collector struct {
	disc Discoverer
	opts Options

	mu      sync.Mutex
	daemons map[string]*daemonState
	slos    []*sloState
	sweeps  int64
	rng     *rand.Rand

	srv     *monitorHTTP
	stop    chan struct{}
	stopped sync.WaitGroup
	once    sync.Once
}

// New creates a collector over a discoverer (a directory.Client against
// the deployment's dirserver, or a directory.Mem in-process).
func New(disc Discoverer, opts Options) *Collector {
	c := &Collector{
		disc:    disc,
		opts:    opts.withDefaults(),
		daemons: make(map[string]*daemonState),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())), //nolint:gosec // jitter, not crypto
		stop:    make(chan struct{}),
	}
	for _, s := range c.opts.SLOs {
		cfg := s.withDefaults()
		// Seed the status so /fleet/slo identifies every objective
		// before the first sweep evaluates it.
		c.slos = append(c.slos, &sloState{cfg: cfg, last: SLOStatus{
			Tenant: cfg.Tenant, TargetSeconds: cfg.Target.Seconds(),
		}})
	}
	return c
}

// Start launches the background sweep loop (jittered Interval).
func (c *Collector) Start() {
	c.stopped.Add(1)
	go func() {
		defer c.stopped.Done()
		for {
			iv := c.opts.Interval
			c.mu.Lock()
			j := 1 + c.opts.Jitter*(2*c.rng.Float64()-1)
			c.mu.Unlock()
			t := time.NewTimer(time.Duration(float64(iv) * j))
			select {
			case <-c.stop:
				t.Stop()
				return
			case <-t.C:
				c.Sweep() //nolint:errcheck // a failed listing retries next tick
			}
		}
	}()
}

// Close stops the sweep loop and the HTTP server (if serving).
func (c *Collector) Close() error {
	c.once.Do(func() { close(c.stop) })
	c.stopped.Wait()
	c.mu.Lock()
	srv := c.srv
	c.srv = nil
	c.mu.Unlock()
	if srv != nil {
		return srv.close()
	}
	return nil
}

// Sweep performs one synchronous collection pass: list the live fleet,
// scrape every daemon not in backoff concurrently (each under its own
// timeout), fold the results in, and re-evaluate SLOs. Drills call it
// directly for deterministic assertions; the Start loop calls it on the
// jittered interval.
func (c *Collector) Sweep() error {
	targets, err := c.disc.List(c.opts.Prefix)
	if err != nil {
		return fmt.Errorf("obsplane: discovery: %w", err)
	}
	now := time.Now()
	type job struct{ key, url string }
	var jobs []job
	c.mu.Lock()
	for key, url := range targets {
		st := c.daemons[key]
		if st == nil {
			st = &daemonState{key: key}
			c.daemons[key] = st
		}
		st.url = url
		if now.Before(st.backoffUntil) {
			continue
		}
		jobs = append(jobs, job{key, url})
	}
	// A daemon whose lease expired keeps its accumulated history (its
	// events already scraped remain stitched) but is marked gone.
	for key, st := range c.daemons {
		if _, ok := targets[key]; !ok {
			st.alive = false
		}
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, jb := range jobs {
		wg.Add(1)
		go func(jb job) {
			defer wg.Done()
			c.scrape(jb.key, jb.url)
		}(jb)
	}
	wg.Wait()

	c.mu.Lock()
	c.sweeps++
	steps := c.stitchLocked()
	fired := c.evalSLOsLocked(steps)
	cb := c.opts.OnBreach
	c.mu.Unlock()
	if cb != nil {
		for _, s := range fired {
			cb(s)
		}
	}
	return nil
}

// scrape fetches one daemon's /report and /journal under the per-daemon
// timeout and folds the results into its state. A missing /journal
// (404: no flight recorder attached) is tolerated; transport errors on
// either endpoint fail the scrape and arm the backoff.
func (c *Collector) scrape(key, url string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()

	var rep monitor.Report
	var dump flight.JournalDump
	err := c.getJSON(ctx, url+"/report", &rep)
	haveDump := false
	if err == nil {
		switch jerr := c.getJSON(ctx, url+"/journal", &dump); {
		case jerr == nil:
			haveDump = true
		case isHTTPStatus(jerr, http.StatusNotFound):
			// No flight recorder on this daemon; metrics-only is fine.
		default:
			err = jerr
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.daemons[key]
	if st == nil { // raced with a reset; re-create
		st = &daemonState{key: key, url: url}
		c.daemons[key] = st
	}
	if err != nil {
		st.alive = false
		st.failures++
		st.lastErr = err.Error()
		st.backoffUntil = time.Now().Add(c.opts.Backoff)
		return
	}
	st.alive = true
	st.failures = 0
	st.lastErr = ""
	st.report = rep
	st.hasReport = true
	if haveDump {
		st.ingestLocked(dump, c.opts.EventCap)
	}
}

// ingestLocked windows a /journal dump against the cursor of the previous
// sweep: Events covers journal positions [Seen-len(Events), Seen), so the
// events completed since last sweep are exactly those past the previous
// cursor — and positions between the previous cursor and the window
// start were evicted by the daemon's ring before this sweep saw them (a
// gap, counted, never silently absorbed). A cursor that moved backwards
// means the journal was reset; windowing restarts from zero. Events enter
// a journal only when they end, so nothing ingested is half-open.
func (st *daemonState) ingestLocked(dump flight.JournalDump, eventCap int) {
	if dump.Seen < st.lastCursor {
		st.lastCursor = 0
	}
	windowStart := dump.Seen - int64(len(dump.Events))
	newFrom := st.lastCursor - windowStart
	if newFrom < 0 {
		st.gap += -newFrom
		newFrom = 0
	}
	if newFrom > int64(len(dump.Events)) {
		newFrom = int64(len(dump.Events))
	}
	st.events = append(st.events, dump.Events[newFrom:]...)
	st.lastCursor = dump.Seen
	st.origin = dump.Daemon
	if over := len(st.events) - eventCap; over > 0 {
		st.localDropped += int64(over)
		st.events = append(st.events[:0:0], st.events[over:]...)
	}
}

// getJSON fetches url and decodes its JSON body into out.
func (c *Collector) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return &httpStatusError{url: url, code: resp.StatusCode}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type httpStatusError struct {
	url  string
	code int
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("obsplane: GET %s: status %d", e.url, e.code)
}

func isHTTPStatus(err error, code int) bool {
	se, ok := err.(*httpStatusError)
	return ok && se.code == code
}

// Snapshot assembles one consistent fleet view from the collector's
// current state: per-daemon health, the fleet-merged report, the
// stitched step table and the SLO statuses.
func (c *Collector) Snapshot() FleetSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Collector) snapshotLocked() FleetSnapshot {
	out := FleetSnapshot{Sweeps: c.sweeps}
	reports := make([]monitor.Report, 0, len(c.daemons))
	for _, key := range c.sortedKeysLocked() {
		st := c.daemons[key]
		out.Daemons = append(out.Daemons, DaemonStatus{
			Key: st.key, URL: st.url, Alive: st.alive,
			Failures: st.failures, LastErr: st.lastErr,
			Cursor: st.lastCursor, Gap: st.gap, Dropped: st.localDropped,
		})
		if st.hasReport {
			reports = append(reports, st.report)
		}
	}
	out.Report = monitor.Merge("fleet", reports...)
	out.Steps = c.stitchLocked()
	for _, s := range c.slos {
		out.SLOs = append(out.SLOs, s.last)
	}
	return out
}

// sortedKeysLocked returns the daemon keys in stable order, so merged
// artifacts (and the MergeDumps lane numbering) are deterministic
// across calls.
func (c *Collector) sortedKeysLocked() []string {
	keys := make([]string, 0, len(c.daemons))
	for k := range c.daemons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CritPaths merges the fleet's event stores (stable daemon order →
// stable rank lanes) and runs the critical-path analysis per scope.
// Step paths whose edges span more than one lane cross a process
// boundary (flight.CrossesProcess).
func (c *Collector) CritPaths() map[string]flight.Analysis {
	c.mu.Lock()
	dumps := make([]flight.JournalDump, 0, len(c.daemons))
	for _, key := range c.sortedKeysLocked() {
		if st := c.daemons[key]; len(st.events) > 0 {
			dumps = append(dumps, flight.JournalDump{Events: st.events})
		}
	}
	merged := flight.MergeDumps(dumps...)
	c.mu.Unlock()
	out := make(map[string]flight.Analysis)
	for scope, evs := range flight.SplitScopes(merged) {
		out[scope] = flight.Analyze(evs)
	}
	return out
}
