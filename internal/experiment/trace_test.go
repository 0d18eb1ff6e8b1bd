package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexio/internal/flight"
)

// chromeFile mirrors the trace-event JSON for decoding in tests.
type chromeFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestTraceRunArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")

	fig, err := TraceRun(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The mid-run live check must have actually run and passed.
	notes := strings.Join(fig.Notes, "\n")
	if !strings.Contains(notes, "self-check: ok") {
		t.Fatalf("no live /metrics self-check in notes:\n%s", notes)
	}
	if !strings.Contains(notes, "switch at step") {
		t.Fatalf("steered run did not report an observed switch:\n%s", notes)
	}

	// trace.json: valid Chrome trace of both journals, one process lane
	// each, with one timestep's stages correlated by args.step.
	blob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeFile
	if err := json.Unmarshal(blob, &tr); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	pidName := map[int]string{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			pidName[ev.Pid] = ev.Args["name"].(string)
		}
	}
	// Stages of probe step 1, by journal lane.
	stages := map[string]map[string]bool{} // point -> set of lanes
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if step, ok := ev.Args["step"].(float64); !ok || step != 1 {
			continue
		}
		if stages[ev.Name] == nil {
			stages[ev.Name] = map[string]bool{}
		}
		stages[ev.Name][pidName[ev.Pid]] = true
	}
	for point, lane := range map[string]string{
		"writer.flush":    "journal 0",
		"writer.pack":     "journal 0",
		"send.shm":        "journal 0",
		"reader.assemble": "journal 0",
		"dc.plugin":       "journal 0",
		"sim.compute":     "journal 1",
		"analysis":        "journal 1",
	} {
		if !stages[point][lane] {
			t.Errorf("step 1 missing %q in lane %q (have %v)", point, lane, stages[point])
		}
	}

	// metrics.json: machine-readable report with quantiles for the flush
	// stage, fed from the journal stages as they end.
	blob, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Name    string `json:"name"`
		Timings map[string]struct {
			Count int64   `json:"count"`
			P95   float64 `json:"p95"`
		} `json:"timings"`
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	if rep.Name != "flexio" {
		t.Fatalf("merged report name %q", rep.Name)
	}
	fl := rep.Timings["writer.flush"]
	if fl.Count == 0 || fl.P95 <= 0 {
		t.Fatalf("flush timing not exported: %+v", fl)
	}

	// Transport-resource gauges must surface in the merged report: the
	// rdma phase exercises the registration cache and message queues...
	if rep.Gauges["rdma.cache.hits"] <= 0 || rep.Gauges["rdma.cache.misses"] <= 0 {
		t.Errorf("registration-cache gauges missing: hits=%d misses=%d",
			rep.Gauges["rdma.cache.hits"], rep.Gauges["rdma.cache.misses"])
	}
	if hw := rep.Gauges["rdma.msgq.highwater"]; hw <= 0 || hw > rep.Gauges["rdma.msgq.cap"] {
		t.Errorf("msgq highwater %d out of range (cap %d)", hw, rep.Gauges["rdma.msgq.cap"])
	}
	// ...and the shm phase moves array payloads: either through a
	// channel's buffer pool (eager copies) or by reference (handle
	// sends) — with zero-copy on by default the pool stays untouched and
	// the hand-off counter is the payload-traffic signal.
	var shmPayloadTraffic int64
	for name, v := range rep.Gauges {
		if strings.HasPrefix(name, "shm.ch") &&
			(strings.HasSuffix(name, "pool.highwater") || strings.HasSuffix(name, ".handle")) && v > shmPayloadTraffic {
			shmPayloadTraffic = v
		}
	}
	if shmPayloadTraffic <= 0 {
		t.Errorf("no shm channel reported pool use or handle sends; gauges: %v", rep.Gauges)
	}
	// The assembly pool drains to zero once every buffer is released.
	if rep.Gauges["core.asmpool.inuse"] != 0 || rep.Gauges["core.asmpool.highwater"] <= 0 {
		t.Errorf("asm pool inuse=%d highwater=%d, want drained pool with recorded peak",
			rep.Gauges["core.asmpool.inuse"], rep.Gauges["core.asmpool.highwater"])
	}

	// The live self-checks must cover the flight endpoints too.
	if !strings.Contains(notes, "/journal + /trace + /critpath self-check: ok") {
		t.Fatalf("no flight-endpoint self-check in notes:\n%s", notes)
	}

	// journal.json and critpath.json describe the coupled scenario: the
	// analysis covers every journaled step.
	var dump flight.JournalDump
	var an flight.Analysis
	for name, out := range map[string]any{"journal.json": &dump, "critpath.json": &an} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, out); err != nil {
			t.Fatalf("%s does not parse: %v", name, err)
		}
	}
	if dump.Seen == 0 || len(an.Steps) != flightSteps || an.Dominant == "" {
		t.Fatalf("journal.json seen %d, critpath.json %d steps dominant %q; want %d steps",
			dump.Seen, len(an.Steps), an.Dominant, flightSteps)
	}
}
