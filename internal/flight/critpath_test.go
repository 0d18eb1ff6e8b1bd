package flight

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// pipelineStep records a canonical writer→wire→reader chain for one step
// with explicit parents, offset in time, and returns the events.
func pipelineStep(j *Journal, step int64, base float64) {
	pack := j.Record(Event{Kind: KindCompute, Point: "writer.pack", Rank: 0, Step: step, T: base, Dur: 0.010})
	send := j.Record(Event{Kind: KindSend, Point: "send.rdma", Channel: "w0>r0", Rank: 0, Step: step, Parent: pack, T: base + 0.010, Dur: 0.030, Bytes: 1 << 20})
	recv := j.Record(Event{Kind: KindRecv, Point: "recv.rdma", Channel: "w0>r0", Rank: 1, Step: step, Parent: send, T: base + 0.040, Dur: 0})
	j.Record(Event{Kind: KindCompute, Point: "reader.assemble", Rank: 1, Step: step, Parent: recv, T: base + 0.040, Dur: 0.015})
}

func TestCriticalPathEdgesSumToLatency(t *testing.T) {
	j := NewJournal(64)
	for s := int64(0); s < 3; s++ {
		pipelineStep(j, s, float64(s))
	}
	an := Analyze(j.Snapshot())
	if len(an.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(an.Steps))
	}
	for _, sp := range an.Steps {
		if math.Abs(sp.EdgeSum()-sp.Latency) > 1e-12 {
			t.Fatalf("step %d: edge sum %.9f != latency %.9f", sp.Step, sp.EdgeSum(), sp.Latency)
		}
		if math.Abs(sp.Latency-0.055) > 1e-9 {
			t.Fatalf("step %d latency = %v, want 0.055", sp.Step, sp.Latency)
		}
		if sp.Dominant != "send.rdma" {
			t.Fatalf("step %d dominant = %q, want send.rdma", sp.Step, sp.Dominant)
		}
		for pt, s := range sp.Shares {
			if s <= 0 || s > 1 {
				t.Fatalf("share %s = %v out of range", pt, s)
			}
		}
	}
	if an.Dominant != "send.rdma" {
		t.Fatalf("aggregate dominant = %q", an.Dominant)
	}
	// Aggregate shares are a distribution.
	var total float64
	for _, s := range an.Shares {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("aggregate shares sum to %v, want 1", total)
	}
}

func TestCriticalPathInsertsWaitEdges(t *testing.T) {
	j := NewJournal(16)
	// Producer finishes at t=1; consumer starts at t=3 — a 2s gap that
	// must surface as wait, not vanish.
	a := j.Record(Event{Kind: KindCompute, Point: "sim.compute", Rank: 0, Step: 0, T: 0, Dur: 1})
	j.Record(Event{Kind: KindCompute, Point: "analysis", Rank: 1, Step: 0, Parent: a, T: 3, Dur: 1})
	an := Analyze(j.Snapshot())
	if len(an.Steps) != 1 {
		t.Fatalf("steps = %d", len(an.Steps))
	}
	sp := an.Steps[0]
	if math.Abs(sp.Latency-4) > 1e-12 || math.Abs(sp.EdgeSum()-4) > 1e-12 {
		t.Fatalf("latency/edges = %v/%v, want 4/4", sp.Latency, sp.EdgeSum())
	}
	if w := sp.Shares["wait"]; math.Abs(w-0.5) > 1e-9 {
		t.Fatalf("wait share = %v, want 0.5", w)
	}
}

func TestCriticalPathInfersSendRecvEdges(t *testing.T) {
	// No explicit parents: the recv should chain to the same-channel
	// send, not float free.
	evs := []Event{
		{ID: 1, Kind: KindCompute, Point: "writer.pack", Rank: 0, Step: 1, T: 0, Dur: 1},
		{ID: 2, Kind: KindSend, Point: "send.shm", Channel: "c", Rank: 0, Step: 1, T: 1, Dur: 2},
		{ID: 3, Kind: KindRecv, Point: "recv.shm", Channel: "c", Rank: 1, Step: 1, T: 3, Dur: 0},
		{ID: 4, Kind: KindCompute, Point: "reader.assemble", Rank: 1, Step: 1, T: 3, Dur: 1},
	}
	an := Analyze(evs)
	sp := an.Steps[0]
	if math.Abs(sp.Latency-4) > 1e-12 || math.Abs(sp.EdgeSum()-sp.Latency) > 1e-12 {
		t.Fatalf("latency %v edges %v", sp.Latency, sp.EdgeSum())
	}
	points := map[string]bool{}
	for _, e := range sp.Edges {
		points[e.Point] = true
	}
	for _, want := range []string{"writer.pack", "send.shm", "reader.assemble"} {
		if !points[want] {
			t.Fatalf("critical path %v missing %s", sp.Edges, want)
		}
	}
}

func TestCriticalPathOverlapDoesNotDoubleCount(t *testing.T) {
	// Parent and child overlap: child starts before parent finishes.
	evs := []Event{
		{ID: 1, Kind: KindCompute, Point: "a", Rank: 0, Step: 0, T: 0, Dur: 3},
		{ID: 2, Parent: 1, Kind: KindCompute, Point: "b", Rank: 0, Step: 0, T: 2, Dur: 3},
	}
	an := Analyze(evs)
	sp := an.Steps[0]
	if math.Abs(sp.Latency-5) > 1e-12 || math.Abs(sp.EdgeSum()-5) > 1e-12 {
		t.Fatalf("latency %v edgesum %v, want 5/5", sp.Latency, sp.EdgeSum())
	}
}

func TestAnalyzeEmptyAndExports(t *testing.T) {
	an := Analyze(nil)
	if len(an.Steps) != 0 || an.Dominant != "" {
		t.Fatalf("empty analysis = %+v", an)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, an); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no step events") {
		t.Fatalf("empty report = %q", buf.String())
	}

	j := NewJournal(32)
	pipelineStep(j, 0, 0)
	an = Analyze(j.Snapshot())
	buf.Reset()
	if err := WriteReport(&buf, an); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dominant: send.rdma", "writer.pack", "reader.assemble"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := WriteAnalysisJSON(&buf, an); err != nil {
		t.Fatal(err)
	}
	var round Analysis
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("critpath JSON does not round-trip: %v", err)
	}
	if round.Dominant != an.Dominant || len(round.Steps) != len(an.Steps) {
		t.Fatalf("round-trip mismatch: %+v", round)
	}
}

func TestChromeTraceHasFlowArrows(t *testing.T) {
	j := NewJournal(32)
	pipelineStep(j, 0, 0)
	doc := chromeRows(t, j.Snapshot())
	var slices, starts, finishes int
	for _, ev := range doc {
		switch ev["ph"] {
		case "X":
			slices++
			args := ev["args"].(map[string]any)
			if args["step"].(float64) != 0 || ev["dur"].(float64) <= 0 {
				t.Fatalf("slice lost its step or extent: %+v", ev)
			}
		case "s":
			starts++
		case "f":
			finishes++
		}
	}
	if slices == 0 {
		t.Fatal("no slices in trace")
	}
	if starts == 0 || starts != finishes {
		t.Fatalf("flow arrows s=%d f=%d, want matched nonzero pairs", starts, finishes)
	}

	// Merged dumps render one process per lane: the writer daemon's and
	// the reader daemon's events never share a pid, and ranks stay small
	// thread ids inside their lane.
	wj, rj := NewJournal(8), NewJournal(8)
	wj.Record(Event{Kind: KindCompute, Point: "writer.pack", Step: 3, Epoch: 2, T: 1, Dur: 0.5})
	rj.Record(Event{Kind: KindCompute, Point: "reader.assemble", Rank: 1, Step: 3, Epoch: 2, T: 1.5, Dur: 0.5})
	pids := map[string]float64{}
	metas := 0
	for _, ev := range chromeRows(t, MergeDumps(Dump(wj), Dump(rj))) {
		switch ev["ph"] {
		case "M":
			metas++
		case "X":
			pids[ev["name"].(string)] = ev["pid"].(float64)
			if tid := ev["tid"].(float64); tid > 1 {
				t.Fatalf("rank lane leaked into tid %v", tid)
			}
		}
	}
	if metas != 2 || pids["writer.pack"] == pids["reader.assemble"] {
		t.Fatalf("process lanes = %d metas, pids %v; want one lane per dump", metas, pids)
	}
}

// chromeRows renders events through WriteChromeTrace and decodes the rows.
func chromeRows(t *testing.T, evs []Event) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	return doc.TraceEvents
}

func TestJournalDumpShape(t *testing.T) {
	j := NewJournal(8)
	pipelineStep(j, 0, 0)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, j); err != nil {
		t.Fatal(err)
	}
	var d JournalDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Seen != 4 || len(d.Events) != 4 || d.Hash == "" {
		t.Fatalf("dump = seen %d events %d hash %q", d.Seen, len(d.Events), d.Hash)
	}
}
