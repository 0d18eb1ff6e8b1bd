package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"flexio/internal/evpath"
	"flexio/internal/flight"
	"flexio/internal/monitor"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesTables holds BENCHMARK.json and the Go tables
// together: same workloads, same metrics, same units, directions, bounds.
func TestDeclarationMatchesTables(t *testing.T) {
	d := loadDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(d.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(specs))
	}
	for i, w := range d.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", w.Name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program has %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range d.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: declared %+v, program has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program has %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: declared %+v, program has %+v", i, m, want)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
			t.Errorf("metric %q unit %q: outside the contract's alphabet", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %q: better is %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", d.RunSeconds)
	}
}

// TestEveryWorkloadBothModes runs each workload briefly in both modes,
// on two seeds: no operation may fail, the names emitted must be exactly
// the declared ones, and every value must be a finite number.
func TestEveryWorkloadBothModes(t *testing.T) {
	check := func(t *testing.T, m *measurement, table []metric) {
		t.Helper()
		if m.failed != 0 || m.attempted == 0 {
			t.Errorf("%d of %d operations failed: %v", m.failed, m.attempted, m.failure)
		}
		for _, mt := range table {
			v, ok := m.metrics[mt.name]
			if !ok {
				t.Errorf("declared metric %q was not emitted", mt.name)
			} else if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("metric %q = %v", mt.name, v)
			}
		}
		if len(m.metrics) != len(table) {
			for k := range m.metrics {
				t.Logf("emitted %q", k)
			}
			t.Errorf("%d metrics emitted, %d declared", len(m.metrics), len(table))
		}
	}
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			in, err := generate(sp, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := measureEndToEnd(in, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			check(t, m, endToEnd)
			for _, mt := range endToEnd {
				if m.metrics[mt.name] <= 0 {
					t.Errorf("end-to-end metric %q = %v, must never be 0", mt.name, m.metrics[mt.name])
				}
			}

			if in, err = generate(sp, 2); err != nil {
				t.Fatal(err)
			}
			if m, err = measureLayers(in, time.Second, layerOptions{traced: true, probes: true}); err != nil {
				t.Fatal(err)
			}
			check(t, m, perLayer)
		})
	}
}

// TestCorruptionIsCaught flips one byte and expects verification to fail:
// a probe byte on any step, any other byte on the steps compared whole.
func TestCorruptionIsCaught(t *testing.T) {
	for _, name := range []string{"s3d_shm", "gts_query_shm"} {
		sp, err := findSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := generate(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, r, step := in.vars[0], 1, int64(7)
		// What a correct delivery of this step looks like.
		good := bytes.Clone(v.expect[r])
		for _, off := range v.probes[r] {
			binary.LittleEndian.PutUint64(good[off:], stampValue(step))
		}
		if err := v.verify(r, step, good, true); err != nil {
			t.Fatalf("%s: correct delivery rejected: %v", name, err)
		}
		bad := bytes.Clone(good)
		bad[v.probes[r][0]] ^= 1
		if v.verify(r, step, bad, false) == nil {
			t.Errorf("%s: corrupted probe byte passed the per-operation check", name)
		}
		plain := 0 // a byte no probe covers
		for covered := true; covered; {
			covered = false
			for _, off := range v.probes[r] {
				if plain >= off && plain < off+8 {
					plain, covered = off+8, true
				}
			}
		}
		bad = bytes.Clone(good)
		bad[plain] ^= 1
		if v.verify(r, step, bad, true) == nil {
			t.Errorf("%s: corrupted byte %d passed the whole-step comparison", name, plain)
		}
		if v.verify(r, step, good[:len(good)-8], false) == nil {
			t.Errorf("%s: short delivery passed", name)
		}
	}

	// Through a real stream: one input byte changed after the oracle was
	// computed must surface as failed operations, not as an error.
	sp, _ := findSpec("s3d_shm")
	in, err := generate(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.vars[3].src[0][0] ^= 1
	_, res, err := timedRun(in, attached{}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Error("a stream that delivered a corrupted byte reported no failed operation")
	}
}

// TestWrapperIsTransparent checks that the traced run measures the same
// program: the WrapConn wrapper shows core exactly the optional
// interfaces of the connection inside, so a wrapped s3d_shm run still
// hands every array payload off by reference and sends the same messages
// per step as an unwrapped instrumented run.
func TestWrapperIsTransparent(t *testing.T) {
	tr := newTracer()
	a, b, err := localPair(evpath.ShmTransport)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.wrap(a)
	if _, ok := w.(evpath.HandleConn); !ok {
		t.Error("wrapped shm connection lost HandleConn")
	}
	if _, ok := w.(evpath.WireConn); ok {
		t.Error("wrapped shm connection gained WireConn")
	}
	if w.Transport() != "shm" {
		t.Errorf("wrapped shm connection reports transport %q", w.Transport())
	}
	a.Close()
	b.Close()

	if a, b, err = localPair(evpath.ChanTransport); err != nil {
		t.Fatal(err)
	}
	w = tr.wrap(a)
	if _, ok := w.(evpath.HandleConn); ok {
		t.Error("wrapped chan connection gained HandleConn")
	}
	a.Close()
	b.Close()

	p, err := newTCPPeers()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	client, a, b, err := p.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer client.CloseTCP()
	w = tr.wrap(a)
	if _, ok := w.(evpath.HandleConn); ok {
		t.Error("wrapped tcp connection gained HandleConn")
	}
	if wc, ok := w.(evpath.WireConn); !ok || wc.WireOverhead() != evpath.FrameOverhead {
		t.Error("wrapped tcp connection lost WireConn")
	}
	a.Close()
	b.Close()

	sp, _ := findSpec("s3d_shm")
	in, err := generate(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	msgsPerStep := func(at attached) (hitShare, msgs float64, res *runResult) {
		at.mon = monitor.New("bench")
		at.journal = flight.NewJournal(0)
		_, res, err := timedRun(in, at, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("%d operations failed: %v", res.failed, res.firstFailure)
		}
		rep := at.mon.Snapshot()
		return share(rep.Counts["shm.zerocopy_hits"], rep.Counts["shm.zerocopy_fallbacks"]),
			float64(rep.Counts["data.msgs"]) / float64(res.last+1), res
	}
	plainShare, plainMsgs, _ := msgsPerStep(attached{})
	tr = newTracer()
	wrappedShare, wrappedMsgs, res := msgsPerStep(attached{tr: tr})
	if plainShare != 1 || wrappedShare != 1 {
		t.Errorf("shm.zerocopy_hit_share: unwrapped %v, wrapped %v, want 1 and 1", plainShare, wrappedShare)
	}
	traced := res.traced(tr)["core.msgs_per_step"]
	if plainMsgs != wrappedMsgs || traced != plainMsgs {
		t.Errorf("core.msgs_per_step: unwrapped monitor %v, wrapped monitor %v, wrapper's own count %v", plainMsgs, wrappedMsgs, traced)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(center float64) []float64 {
		var v []float64
		for i := -5; i < 5; i++ {
			v = append(v, center*(1+float64(i)*0.001))
		}
		return v
	}
	mk := func(stepsPerSec, latency []float64) *resultsFile {
		e2e := map[string]*series{}
		for _, mt := range endToEnd {
			vals := steady(10)
			switch mt.name {
			case "steps_per_s":
				vals = stepsPerSec
			case "step_latency_p50_ms":
				vals = latency
			}
			e2e[mt.name] = &series{Unit: mt.unit, Better: mt.better, Bound: mt.bound, Values: vals, Median: median(append([]float64(nil), vals...))}
		}
		return &resultsFile{Workloads: []*workloadResult{{Name: "s3d_shm", EndToEnd: e2e}}}
	}
	noisy := []float64{60, 80, 100, 120, 140, 70, 90, 110, 130, 100}
	cases := []struct {
		name      string
		a, b      *resultsFile
		want      map[string]string
		regressed bool
	}{
		{"same", mk(steady(100), steady(5)), mk(steady(101), steady(5.1)),
			map[string]string{"steps_per_s": "ok", "step_latency_p50_ms": "ok"}, false},
		{"slower", mk(steady(100), steady(5)), mk(steady(70), steady(5)),
			map[string]string{"steps_per_s": "regressed", "step_latency_p50_ms": "ok"}, true},
		{"higher latency", mk(steady(100), steady(5)), mk(steady(100), steady(7)),
			map[string]string{"steps_per_s": "ok", "step_latency_p50_ms": "regressed"}, true},
		{"too noisy to tell", mk(noisy, steady(5)), mk(steady(95), steady(5)),
			map[string]string{"steps_per_s": "unresolved"}, false},
		{"noisy but every run better", mk(noisy, steady(5)), mk(steady(200), steady(5)),
			map[string]string{"steps_per_s": "ok"}, false},
	}
	dir := t.TempDir()
	for _, c := range cases {
		var paths []string
		for i, f := range []*resultsFile{c.a, c.b} {
			data, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_")+string(rune('A'+i))+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		var out bytes.Buffer
		regressed, err := compareFiles(&out, paths[0], paths[1])
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.regressed, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			if want, ok := c.want[f[1]]; ok && f[len(f)-1] != want {
				t.Errorf("%s: %s is %q, want %q", c.name, f[1], f[len(f)-1], want)
			}
		}
	}

	// The quartiles are Python's statistics.quantiles(range(1, 11), n=4).
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
