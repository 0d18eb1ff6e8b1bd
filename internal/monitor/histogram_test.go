package monitor

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNilMonitorIsNop(t *testing.T) {
	var m *Monitor
	// Every method must be callable on nil without panicking.
	m.SetIdentity("d", "n")
	m.Observe("a", 1)
	m.Declare("a")
	m.AddVolume("a", 1)
	m.Incr("a", 1)
	m.Set("a", 1)
	_ = m.Gauge("a")
	m.RecordAlloc(1)
	m.RecordFree(1)
	rep := m.Snapshot()
	if rep.Name != "" || len(rep.Timings) != 0 || len(rep.Gauges) != 0 {
		t.Fatalf("nil monitor snapshot not empty: %+v", rep)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	m := New("q")
	// 90 fast samples at 1ms, 9 at 100ms, 1 at 1.6s: p50 lands in the 1ms
	// bucket, p95 in the 100ms bucket, p99 at the border of the tail.
	for i := 0; i < 90; i++ {
		m.Observe("lat", 1e-3)
	}
	for i := 0; i < 9; i++ {
		m.Observe("lat", 0.1)
	}
	m.Observe("lat", 1.6)
	st := m.Snapshot().Timings["lat"]
	if st.Count != 100 {
		t.Fatalf("count %d", st.Count)
	}
	p50, p95, p99 := st.P50(), st.P95(), st.P99()
	// Log2 buckets are accurate to sqrt(2): check band membership.
	if p50 < 0.5e-3 || p50 > 2e-3 {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p95 < 0.05 || p95 > 0.2 {
		t.Fatalf("p95 = %v, want ~100ms", p95)
	}
	if p99 < 0.05 || p99 > 1.7 {
		t.Fatalf("p99 = %v, want in the tail band", p99)
	}
	if p50 > p95 || p95 > p99 {
		t.Fatalf("quantiles not monotone: %v %v %v", p50, p95, p99)
	}
	// Quantiles clamp to the exact envelope.
	if st.Quantile(0) != st.Min || st.Quantile(1) != st.Max {
		t.Fatalf("q0/q1 = %v/%v, want %v/%v", st.Quantile(0), st.Quantile(1), st.Min, st.Max)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	if b := histBucket(1.0); b != histZero {
		t.Fatalf("bucket(1s) = %d, want %d", b, histZero)
	}
	if b := histBucket(0); b != 0 {
		t.Fatalf("bucket(0) = %d, want 0", b)
	}
	if b := histBucket(-5); b != 0 {
		t.Fatalf("bucket(-5) = %d, want 0", b)
	}
	if b := histBucket(math.Inf(1)); b != HistBuckets-1 {
		t.Fatalf("bucket(+Inf) = %d, want %d", b, HistBuckets-1)
	}
	if b := histBucket(1e-300); b != 0 {
		t.Fatalf("tiny duration bucket = %d, want clamp to 0", b)
	}
}

func TestEmptyTimingStatJSON(t *testing.T) {
	// Regression: a point created but never observed used to serialize
	// Min as +Inf, which encoding/json rejects — json.Marshal of the whole
	// snapshot failed, silently dropping the writer's online reports.
	m := New("empty")
	m.Declare("never.observed")
	snap := m.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal of snapshot with empty point: %v", err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	st, ok := back.Timings["never.observed"]
	if !ok {
		t.Fatalf("empty point lost in round trip")
	}
	if st.Count != 0 {
		t.Fatalf("count %d, want 0", st.Count)
	}
	// The restored empty stat keeps the internal invariant so a later
	// merge with real data takes the data's extrema.
	merged := Merge("m", back, func() Report {
		mm := New("x")
		mm.Observe("never.observed", 0.25)
		return mm.Snapshot()
	}())
	got := merged.Timings["never.observed"]
	if got.Count != 1 || got.Min != 0.25 || got.Max != 0.25 {
		t.Fatalf("merge after empty round trip: %+v", got)
	}
	// Human trace must render 0, not +Inf, for the empty point.
	var sb strings.Builder
	if err := snap.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Inf") {
		t.Fatalf("WriteTrace leaked Inf:\n%s", sb.String())
	}
}

func TestTimingStatJSONRoundTripWithData(t *testing.T) {
	m := New("rt")
	for _, d := range []float64{1e-4, 2e-4, 5e-2, 1.5} {
		m.Observe("lat", d)
	}
	blob, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	want := m.Snapshot().Timings["lat"]
	got := back.Timings["lat"]
	if got.Count != want.Count || got.Total != want.Total || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("scalar fields changed: got %+v want %+v", got, want)
	}
	if got.Hist != want.Hist {
		t.Fatalf("histogram buckets changed in round trip")
	}
	if got.P95() != want.P95() {
		t.Fatalf("p95 changed: %v -> %v", want.P95(), got.P95())
	}
}
