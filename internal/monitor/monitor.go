// Package monitor implements FlexIO's runtime performance monitoring
// (Section II.G): measurement points across the software stack record
// data-movement timings, transferred volumes, D.C. plug-in execution
// times, and memory usage during data movement. Reports can be dumped as
// trace files for offline tuning or gathered online (Merge) so the
// analytics side can steer data-movement scheduling and plug-in placement.
//
// Timings are log-bucketed histograms, so merged reports expose tail
// latency (P50/P95/P99) per measurement point, not just min/max. The
// monitor keeps aggregates only: per-step structure — one timestep's
// pack → send → assemble → plug-in stages followed across ranks — is the
// flight journal's (internal/flight), whose data-path stages fold their
// durations into the monitor histogram of the same point as they end.
// The monitor reads no clock: durations arrive measured (journal stages,
// Observe) or modeled (virtual-time simulators call Observe directly).
//
// A nil *Monitor is a valid no-op monitor: every method is nil-safe and
// returns immediately, so instrumented code needs no guards and pays
// (benchmarked) near-zero cost when monitoring is disabled.
package monitor

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// HistBuckets is the number of log2 latency buckets a TimingStat carries.
const HistBuckets = 64

// histZero is the bucket index covering [1s, 2s): bucket b spans
// [2^(b-histZero), 2^(b-histZero+1)) seconds, so the histogram resolves
// durations from ~0.23ns (bucket 0) to ~2^31s (bucket 63).
const histZero = 32

// histBucket maps a duration in seconds to its bucket.
func histBucket(seconds float64) int {
	if seconds <= 0 || math.IsNaN(seconds) {
		return 0
	}
	if math.IsInf(seconds, 1) {
		return HistBuckets - 1
	}
	_, exp := math.Frexp(seconds) // seconds = f * 2^exp, f in [0.5, 1)
	b := exp - 1 + histZero       // floor(log2 seconds) + histZero
	if b < 0 {
		return 0
	}
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// bucketMid is a bucket's representative duration: the geometric midpoint
// of its bounds.
func bucketMid(b int) float64 {
	return math.Exp2(float64(b-histZero) + 0.5)
}

// TimingStat aggregates observations of one measurement point: count,
// total, extrema, and a log2-bucketed histogram for quantiles. Stats are
// mergeable across ranks bucket-wise. The zero value is NOT an empty
// stat (its Min would compare wrong); empty stats are created internally
// with Min=+Inf/Max=-Inf and serialize safely (export.go guards them).
type TimingStat struct {
	Count int64
	Total float64 // seconds
	Min   float64
	Max   float64
	Hist  [HistBuckets]int64
}

func newTimingStat() *TimingStat {
	return &TimingStat{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Mean returns the average duration in seconds (0 when empty).
func (s TimingStat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Total / float64(s.Count)
}

// add folds one observation in.
func (s *TimingStat) add(seconds float64) {
	s.Count++
	s.Total += seconds
	if seconds < s.Min {
		s.Min = seconds
	}
	if seconds > s.Max {
		s.Max = seconds
	}
	s.Hist[histBucket(seconds)]++
}

// merge folds another stat in bucket-wise.
func (s *TimingStat) merge(o TimingStat) {
	s.Count += o.Count
	s.Total += o.Total
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for b, n := range o.Hist {
		s.Hist[b] += n
	}
}

// Quantile estimates the q-quantile (0 < q < 1) from the histogram. The
// estimate is the geometric midpoint of the bucket holding the target
// observation, clamped to the exact [Min, Max] envelope; it is accurate
// to within a factor of sqrt(2). Returns 0 when empty.
func (s TimingStat) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < HistBuckets; b++ {
		cum += s.Hist[b]
		if cum >= target {
			v := bucketMid(b)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// P50 is the median duration estimate.
func (s TimingStat) P50() float64 { return s.Quantile(0.50) }

// P95 is the 95th-percentile duration estimate.
func (s TimingStat) P95() float64 { return s.Quantile(0.95) }

// P99 is the 99th-percentile duration estimate.
func (s TimingStat) P99() float64 { return s.Quantile(0.99) }

// Monitor collects measurements. All methods are safe for concurrent use
// and nil-safe (a nil *Monitor is the no-op fast path); a Monitor
// typically belongs to one FlexIO process group.
type Monitor struct {
	Name string

	mu      sync.Mutex
	daemon  string // SetIdentity: owning daemon id
	node    string // SetIdentity: host/node name
	pid     int    // SetIdentity: recording process id
	timings map[string]*TimingStat
	volumes map[string]int64
	counts  map[string]int64
	gauges  map[string]int64
	memCur  int64
	memPeak int64
}

// New creates a named monitor.
func New(name string) *Monitor {
	return &Monitor{
		Name:    name,
		timings: make(map[string]*TimingStat),
		volumes: make(map[string]int64),
		counts:  make(map[string]int64),
		gauges:  make(map[string]int64),
	}
}

// SetIdentity stamps the monitor with the recording process's identity:
// the daemon id and node (host) name travel on every Report, together
// with the process pid, so merged fleet artifacts stay attributable to
// the process that produced each sample. An empty node keeps the
// previously set (or os.Hostname-derived) value.
func (m *Monitor) SetIdentity(daemon, node string) {
	if m == nil {
		return
	}
	if node == "" {
		node, _ = os.Hostname() //nolint:errcheck // "" is an acceptable fallback
	}
	m.mu.Lock()
	m.daemon = daemon
	if node != "" {
		m.node = node
	}
	m.pid = os.Getpid()
	m.mu.Unlock()
}

// Observe records a duration (in seconds) for a measurement point. Data
// path stages reach it through their flight journal stage's End
// (Monitor is a flight.Observer); the virtual-time simulator calls it
// directly with modeled durations.
func (m *Monitor) Observe(point string, seconds float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.observeLocked(point, seconds)
	m.mu.Unlock()
}

func (m *Monitor) observeLocked(point string, seconds float64) {
	st := m.timings[point]
	if st == nil {
		st = newTimingStat()
		m.timings[point] = st
	}
	st.add(seconds)
}

// Declare pre-registers a measurement point with no observations, so
// exports and the live endpoints show it before the first sample. An
// empty stat reports zero Min/Max/quantiles (never +Inf).
func (m *Monitor) Declare(point string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.timings[point] == nil {
		m.timings[point] = newTimingStat()
	}
	m.mu.Unlock()
}

// AddVolume accumulates transferred bytes at a measurement point.
func (m *Monitor) AddVolume(point string, bytes int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.volumes[point] += bytes
	m.mu.Unlock()
}

// Incr bumps a named counter.
func (m *Monitor) Incr(point string, n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counts[point] += n
	m.mu.Unlock()
}

// Set records the current value of a gauge — a point-in-time level such
// as `session.epoch` or a queue depth, as opposed to the monotonic
// accumulation of Incr.
func (m *Monitor) Set(point string, v int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[point] = v
	m.mu.Unlock()
}

// Gauge reads back a gauge value (0 if never set).
func (m *Monitor) Gauge(point string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[point]
}

// RecordAlloc tracks dynamic memory allocated inside FlexIO's data path
// ("dynamic memory allocation points within FlexIO are also instrumented").
func (m *Monitor) RecordAlloc(bytes int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.memCur += bytes
	if m.memCur > m.memPeak {
		m.memPeak = m.memCur
	}
	m.mu.Unlock()
}

// RecordFree tracks the release of data-path memory.
func (m *Monitor) RecordFree(bytes int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.memCur -= bytes
	m.mu.Unlock()
}

// Report is an immutable snapshot of a monitor.
type Report struct {
	Name string `json:"name"`
	// Daemon, PID and Node identify the recording process (SetIdentity);
	// they make merged fleet artifacts attributable. On a Merge output
	// the per-process identities move into Origins instead.
	Daemon  string                `json:"daemon,omitempty"`
	PID     int                   `json:"pid,omitempty"`
	Node    string                `json:"node,omitempty"`
	Origins []string              `json:"origins,omitempty"`
	Timings map[string]TimingStat `json:"timings,omitempty"`
	Volumes map[string]int64      `json:"volumes,omitempty"`
	Counts  map[string]int64      `json:"counts,omitempty"`
	Gauges  map[string]int64      `json:"gauges,omitempty"`
	MemCur  int64                 `json:"mem_cur,omitempty"`
	MemPeak int64                 `json:"mem_peak,omitempty"`
}

// Snapshot captures the current state. A nil monitor snapshots empty.
func (m *Monitor) Snapshot() Report {
	if m == nil {
		return Report{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := Report{
		Name:    m.Name,
		Daemon:  m.daemon,
		PID:     m.pid,
		Node:    m.node,
		Timings: make(map[string]TimingStat, len(m.timings)),
		Volumes: make(map[string]int64, len(m.volumes)),
		Counts:  make(map[string]int64, len(m.counts)),
		Gauges:  make(map[string]int64, len(m.gauges)),
		MemCur:  m.memCur,
		MemPeak: m.memPeak,
	}
	for k, v := range m.timings {
		r.Timings[k] = *v
	}
	for k, v := range m.volumes {
		r.Volumes[k] = v
	}
	for k, v := range m.counts {
		r.Counts[k] = v
	}
	for k, v := range m.gauges {
		r.Gauges[k] = v
	}
	return r
}

// origin renders a report's process identity for Merge attribution.
func (r Report) origin() string {
	switch {
	case r.Daemon != "" && r.Node != "":
		return fmt.Sprintf("%s@%s/%d", r.Daemon, r.Node, r.PID)
	case r.Daemon != "":
		return fmt.Sprintf("%s/%d", r.Daemon, r.PID)
	case r.Name != "":
		return r.Name
	}
	return ""
}

// Merge combines reports (e.g. gathered from all simulation ranks, or
// scraped from every daemon of a fleet) into one: timings aggregate
// bucket-wise, volumes and counters sum, memory peaks take the
// max-of-peaks and sum-of-current. Each input's process identity (or its
// own Origins, when the input is itself a merge) is preserved in the
// output's Origins list, deduplicated in first-seen order, so a merged
// fleet artifact never loses track of which processes contributed.
func Merge(name string, reports ...Report) Report {
	out := Report{
		Name:    name,
		Timings: make(map[string]TimingStat),
		Volumes: make(map[string]int64),
		Counts:  make(map[string]int64),
		Gauges:  make(map[string]int64),
	}
	seenOrigin := make(map[string]bool)
	addOrigin := func(o string) {
		if o != "" && !seenOrigin[o] {
			seenOrigin[o] = true
			out.Origins = append(out.Origins, o)
		}
	}
	for _, r := range reports {
		if len(r.Origins) > 0 {
			for _, o := range r.Origins {
				addOrigin(o)
			}
		} else {
			addOrigin(r.origin())
		}
		for k, v := range r.Timings {
			cur, ok := out.Timings[k]
			if !ok {
				out.Timings[k] = v
				continue
			}
			cur.merge(v)
			out.Timings[k] = cur
		}
		for k, v := range r.Volumes {
			out.Volumes[k] += v
		}
		for k, v := range r.Counts {
			out.Counts[k] += v
		}
		// Gauges are levels, not flows: a merged gauge takes the max across
		// ranks (e.g. session.epoch is identical on every rank in a healthy
		// session, and max surfaces a rank that raced ahead).
		for k, v := range r.Gauges {
			if cur, ok := out.Gauges[k]; !ok || v > cur {
				out.Gauges[k] = v
			}
		}
		out.MemCur += r.MemCur
		if r.MemPeak > out.MemPeak {
			out.MemPeak = r.MemPeak
		}
	}
	return out
}

// finiteOrZero guards an empty stat's ±Inf extrema for display/export.
func finiteOrZero(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// WriteTrace dumps the report as a human-readable trace for offline
// performance tuning, including per-point tail latency.
func (r Report) WriteTrace(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# flexio trace: %s\n", r.Name); err != nil {
		return err
	}
	keys := make([]string, 0, len(r.Timings))
	for k := range r.Timings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := r.Timings[k]
		if _, err := fmt.Fprintf(w, "timing %-32s count=%-8d total=%.6fs mean=%.6fs min=%.6fs max=%.6fs p50=%.6fs p95=%.6fs p99=%.6fs\n",
			k, t.Count, t.Total, t.Mean(), finiteOrZero(t.Min), finiteOrZero(t.Max),
			t.P50(), t.P95(), t.P99()); err != nil {
			return err
		}
	}
	keys = keys[:0]
	for k := range r.Volumes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "volume %-32s bytes=%d\n", k, r.Volumes[k]); err != nil {
			return err
		}
	}
	keys = keys[:0]
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "count  %-32s n=%d\n", k, r.Counts[k]); err != nil {
			return err
		}
	}
	keys = keys[:0]
	for k := range r.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "gauge  %-32s v=%d\n", k, r.Gauges[k]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "memory cur=%dB peak=%dB\n", r.MemCur, r.MemPeak)
	return err
}
