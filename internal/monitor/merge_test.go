package monitor

import (
	"sync"
	"testing"
)

// Merge edge cases: empty reports, disjoint point sets, gauge
// max-semantics, histogram bucket merging — exercised under -race
// together with concurrent Observe/Snapshot (see `make race`).

func TestMergeEmptyReports(t *testing.T) {
	if got := Merge("none"); len(got.Timings) != 0 || len(got.Origins) != 0 {
		t.Fatalf("merge of nothing not empty: %+v", got)
	}
	m := New("a")
	m.Observe("x", 1)
	got := Merge("m", m.Snapshot(), Report{}, (*Monitor)(nil).Snapshot())
	if st := got.Timings["x"]; st.Count != 1 || st.Total != 1 {
		t.Fatalf("merging empty reports disturbed data: %+v", st)
	}
}

func TestMergeDisjointPoints(t *testing.T) {
	a, b := New("a"), New("b")
	a.Observe("pack", 0.5)
	a.AddVolume("tx", 10)
	b.Observe("send", 0.25)
	b.AddVolume("rx", 20)
	b.Incr("msgs", 3)
	got := Merge("m", a.Snapshot(), b.Snapshot())
	if got.Timings["pack"].Count != 1 || got.Timings["send"].Count != 1 {
		t.Fatalf("disjoint timings lost: %+v", got.Timings)
	}
	if got.Volumes["tx"] != 10 || got.Volumes["rx"] != 20 || got.Counts["msgs"] != 3 {
		t.Fatalf("disjoint volumes/counts lost: %+v %+v", got.Volumes, got.Counts)
	}
}

func TestMergeGaugeMaxSemantics(t *testing.T) {
	a, b, c := New("a"), New("b"), New("c")
	a.Set("session.epoch", 2)
	b.Set("session.epoch", 3) // a rank that raced ahead surfaces
	c.Set("session.epoch", 1)
	c.Set("queue.depth", 7) // only one rank reports this gauge
	got := Merge("m", a.Snapshot(), b.Snapshot(), c.Snapshot())
	if got.Gauges["session.epoch"] != 3 {
		t.Fatalf("gauge merge = %d, want max 3", got.Gauges["session.epoch"])
	}
	if got.Gauges["queue.depth"] != 7 {
		t.Fatalf("solo gauge lost: %+v", got.Gauges)
	}
}

func TestMergeHistogramBuckets(t *testing.T) {
	a, b := New("a"), New("b")
	for i := 0; i < 50; i++ {
		a.Observe("lat", 1e-3) // one bucket on rank a
	}
	for i := 0; i < 50; i++ {
		b.Observe("lat", 1.0) // a different bucket on rank b
	}
	got := Merge("m", a.Snapshot(), b.Snapshot()).Timings["lat"]
	if got.Count != 100 {
		t.Fatalf("count %d", got.Count)
	}
	if got.Hist[histBucket(1e-3)] != 50 || got.Hist[histBucket(1.0)] != 50 {
		t.Fatalf("bucket merge wrong: %v in 1ms bucket, %v in 1s bucket",
			got.Hist[histBucket(1e-3)], got.Hist[histBucket(1.0)])
	}
	// The merged quantiles straddle the two populations.
	if p50 := got.P50(); p50 > 2e-3 {
		t.Fatalf("merged p50 = %v, want in the fast bucket", p50)
	}
	if p95 := got.P95(); p95 < 0.5 {
		t.Fatalf("merged p95 = %v, want in the slow bucket", p95)
	}
	if got.Min != 1e-3 || got.Max != 1.0 {
		t.Fatalf("extrema: min=%v max=%v", got.Min, got.Max)
	}
}

// TestConcurrentObserveSnapshotMerge hammers Observe/Set against
// Snapshot+Merge from other goroutines; -race proves the paths are safe.
func TestConcurrentObserveSnapshotMerge(t *testing.T) {
	m1, m2 := New("w"), New("r")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, m := range []*Monitor{m1, m2} {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Observe("lat", float64(i%7)*1e-4)
				m.Set("epoch", int64(i%3))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		merged := Merge("live", m1.Snapshot(), m2.Snapshot())
		if merged.Timings["lat"].Count < 0 {
			t.Fatal("impossible")
		}
	}
	close(stop)
	wg.Wait()
	final := Merge("final", m1.Snapshot(), m2.Snapshot())
	lat := final.Timings["lat"]
	var inBuckets int64
	for _, n := range lat.Hist {
		inBuckets += n
	}
	if inBuckets != lat.Count {
		t.Fatalf("histogram mass %d != count %d", inBuckets, lat.Count)
	}
}
