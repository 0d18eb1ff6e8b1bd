package monitor

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"flexio/internal/flight"
)

func TestWriteJSONMachineReadable(t *testing.T) {
	m := New("json")
	m.Observe("flush", 0.125)
	m.AddVolume("data.bytes", 4096)
	m.Set("session.epoch", 2)
	var buf bytes.Buffer
	if err := m.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	timings := doc["timings"].(map[string]any)
	flush := timings["flush"].(map[string]any)
	for _, k := range []string{"count", "total", "min", "max", "p50", "p95", "p99"} {
		if _, ok := flush[k]; !ok {
			t.Fatalf("machine report missing %q: %+v", k, flush)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	m := New("live")
	for i := 0; i < 100; i++ {
		m.Observe("writer.pack", 1e-3)
	}
	// One journaled stage: its event reaches /trace, its duration the
	// monitor's writer.pack histogram.
	j := flight.NewJournal(0)
	st := j.Begin(m, flight.Event{Kind: flight.KindCompute, Point: "writer.pack", Step: 1})
	st.End()

	srv := NewServer(func() Report { return m.Snapshot() })
	srv.SetFlightSource(func() *flight.Journal { return j })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "writer.pack") || !strings.Contains(metrics, "p95=") {
		t.Fatalf("/metrics lacks quantiles:\n%s", metrics)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get("/trace")), &tr); err != nil {
		t.Fatalf("/trace invalid: %v", err)
	}
	var stages int
	for _, ev := range tr.TraceEvents {
		if ev["name"] == "writer.pack" {
			stages++
		}
	}
	if stages != 1 {
		t.Fatalf("/trace carries %d writer.pack events, want 1: %v", stages, tr.TraceEvents)
	}
	resp, err := http.Get("http://" + addr + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/spans = %d, want 404 (the journal is the only trace record)", resp.StatusCode)
	}
	var full Report
	if err := json.Unmarshal([]byte(get("/report")), &full); err != nil {
		t.Fatalf("/report invalid: %v", err)
	}
	if full.Timings["writer.pack"].Count != 101 {
		t.Fatalf("/report count = %d, want 101", full.Timings["writer.pack"].Count)
	}
}

func TestSteeringTriggersOnSustainedInterference(t *testing.T) {
	m := New("sim")
	st := &Steering{Point: "sim.interval", Baseline: "sim.compute", Threshold: 1.10, Patience: 2}

	// Epochs 0..9: baseline 1s; interference ramps from 1.0x to 1.45x in
	// 0.05 steps. The per-epoch ratio first exceeds 1.10 at epoch 3; with
	// patience 2 the trigger fires at epoch 4.
	firedAt := -1
	for e := 0; e < 10; e++ {
		m.Observe("sim.compute", 1.0)
		m.Observe("sim.interval", 1.0+0.05*float64(e))
		if st.Observe(m.Snapshot()) {
			firedAt = e
		}
	}
	if firedAt != 4 {
		t.Fatalf("fired at epoch %d, want 4 (threshold crossing + patience)", firedAt)
	}
	if !st.Fired() {
		t.Fatal("Fired() false after trigger")
	}
	if st.Epochs() != 10 {
		t.Fatalf("epochs = %d", st.Epochs())
	}
	// Signal keeps tracking the *latest* epoch after firing (delta, not
	// cumulative mean): epoch 9 observed 1.45/1.0.
	if got := st.LastSignal(); got < 1.40 || got > 1.50 {
		t.Fatalf("last signal %v, want ~1.45", got)
	}
}

func TestSteeringDoesNotFireBelowThreshold(t *testing.T) {
	m := New("sim")
	st := &Steering{Point: "sim.interval", Baseline: "sim.compute", Threshold: 1.10, Patience: 1}
	for e := 0; e < 20; e++ {
		m.Observe("sim.compute", 1.0)
		m.Observe("sim.interval", 1.05) // steady 5%: under threshold
		if st.Observe(m.Snapshot()) {
			t.Fatalf("fired at %d on sub-threshold signal", e)
		}
	}
	// A single spike with patience 2 must not fire either.
	st2 := &Steering{Point: "sim.interval", Baseline: "sim.compute", Threshold: 1.10, Patience: 2}
	m2 := New("sim2")
	for e := 0; e < 10; e++ {
		m2.Observe("sim.compute", 1.0)
		if e == 5 {
			m2.Observe("sim.interval", 2.0) // one-epoch spike
		} else {
			m2.Observe("sim.interval", 1.0)
		}
		if st2.Observe(m2.Snapshot()) {
			t.Fatalf("patience 2 fired on a single spike (epoch %d)", e)
		}
	}
}

func TestSteeringCustomSignal(t *testing.T) {
	st := &Steering{
		Signal:    func(r Report) float64 { return float64(r.Gauges["mpki.shared"]) / 100 },
		Threshold: 0.5,
	}
	rep := Report{Gauges: map[string]int64{"mpki.shared": 40}}
	if st.Observe(rep) {
		t.Fatal("fired below threshold")
	}
	rep.Gauges["mpki.shared"] = 80
	if !st.Observe(rep) {
		t.Fatal("custom signal did not fire")
	}
	if st.Observe(rep) {
		t.Fatal("re-fired")
	}
}
