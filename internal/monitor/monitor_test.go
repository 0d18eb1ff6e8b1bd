package monitor

import (
	"strings"
	"sync"
	"testing"
)

func TestObserveAggregates(t *testing.T) {
	m := New("rank0")
	m.Observe("xfer", 1.0)
	m.Observe("xfer", 3.0)
	m.Observe("xfer", 2.0)
	r := m.Snapshot()
	st := r.Timings["xfer"]
	if st.Count != 3 || st.Total != 6.0 || st.Min != 1.0 || st.Max != 3.0 {
		t.Fatalf("stat = %+v", st)
	}
	if st.Mean() != 2.0 {
		t.Fatalf("mean = %g", st.Mean())
	}
}

func TestVolumesAndCounts(t *testing.T) {
	m := New("r")
	m.AddVolume("stream", 100)
	m.AddVolume("stream", 50)
	m.Incr("handshakes", 2)
	r := m.Snapshot()
	if r.Volumes["stream"] != 150 || r.Counts["handshakes"] != 2 {
		t.Fatalf("report = %+v", r)
	}
}

func TestGauges(t *testing.T) {
	m := New("r")
	if m.Gauge("session.epoch") != 0 {
		t.Fatal("unset gauge must read 0")
	}
	m.Set("session.epoch", 1)
	m.Set("session.epoch", 3)
	if m.Gauge("session.epoch") != 3 {
		t.Fatalf("gauge = %d, want 3 (last write wins)", m.Gauge("session.epoch"))
	}
	r := m.Snapshot()
	if r.Gauges["session.epoch"] != 3 {
		t.Fatalf("snapshot gauge = %d", r.Gauges["session.epoch"])
	}

	a, b := New("a"), New("b")
	a.Set("session.epoch", 2)
	b.Set("session.epoch", 3)
	b.Set("queue.depth", 7)
	merged := Merge("all", a.Snapshot(), b.Snapshot())
	if merged.Gauges["session.epoch"] != 3 || merged.Gauges["queue.depth"] != 7 {
		t.Fatalf("merged gauges = %+v, want max across ranks", merged.Gauges)
	}

	var sb strings.Builder
	if err := merged.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gauge  session.epoch") {
		t.Fatalf("trace missing gauge line:\n%s", sb.String())
	}
}

func TestMemoryPeak(t *testing.T) {
	m := New("r")
	m.RecordAlloc(100)
	m.RecordAlloc(200)
	m.RecordFree(150)
	m.RecordAlloc(50)
	r := m.Snapshot()
	if r.MemCur != 200 || r.MemPeak != 300 {
		t.Fatalf("mem cur=%d peak=%d, want 200/300", r.MemCur, r.MemPeak)
	}
}

func TestMeanEmpty(t *testing.T) {
	if (TimingStat{}).Mean() != 0 {
		t.Fatal("empty mean must be 0")
	}
}

func TestMerge(t *testing.T) {
	a := New("a")
	a.Observe("x", 1)
	a.AddVolume("v", 10)
	a.Incr("c", 1)
	a.RecordAlloc(100)
	b := New("b")
	b.Observe("x", 5)
	b.Observe("y", 2)
	b.AddVolume("v", 20)
	b.RecordAlloc(300)
	b.RecordFree(250)

	m := Merge("all", a.Snapshot(), b.Snapshot())
	if st := m.Timings["x"]; st.Count != 2 || st.Total != 6 || st.Min != 1 || st.Max != 5 {
		t.Fatalf("merged x = %+v", st)
	}
	if _, ok := m.Timings["y"]; !ok {
		t.Fatal("merged report missing y")
	}
	if m.Volumes["v"] != 30 || m.Counts["c"] != 1 {
		t.Fatalf("merged volumes/counts wrong: %+v", m)
	}
	if m.MemCur != 150 || m.MemPeak != 300 {
		t.Fatalf("merged mem cur=%d peak=%d", m.MemCur, m.MemPeak)
	}
}

func TestWriteTrace(t *testing.T) {
	m := New("rank3")
	m.Observe("move", 0.5)
	m.AddVolume("move", 1024)
	m.Incr("steps", 4)
	var sb strings.Builder
	if err := m.Snapshot().WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"rank3", "timing move", "volume move", "count  steps", "memory"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := New("r")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Observe("p", 0.001)
				m.AddVolume("p", 1)
				m.Incr("n", 1)
				m.RecordAlloc(8)
				m.RecordFree(8)
			}
		}()
	}
	wg.Wait()
	r := m.Snapshot()
	if r.Timings["p"].Count != 8000 || r.Volumes["p"] != 8000 || r.Counts["n"] != 8000 {
		t.Fatalf("lost updates: %+v", r)
	}
	if r.MemCur != 0 {
		t.Fatalf("mem should balance to 0, got %d", r.MemCur)
	}
}
