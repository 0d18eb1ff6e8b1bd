package coupled_test

import (
	"math"
	"testing"

	. "flexio/internal/coupled"
	"flexio/internal/flight"
	"flexio/internal/machine"
	"flexio/internal/monitor"
	"flexio/internal/placement"
)

// steerPlacements builds a helper-core start (analytics sharing the sim
// NUMA domains, so cache interference is live) and a staging target on
// the second node.
func steerPlacements(t *testing.T, m *machine.Machine) (helper, staging *placement.Placement) {
	t.Helper()
	spec := buildGTSSpec(m, 4, 1)
	simCore := []int{0, 1, 4, 5}
	helper = &placement.Placement{Spec: spec, Policy: "manual-helper",
		SimCore: simCore, AnaCore: []int{2, 3, 6, 7}}
	staging = &placement.Placement{Spec: spec, Policy: "manual-staging",
		SimCore: simCore, AnaCore: []int{16, 17, 18, 19}}
	for _, p := range []*placement.Placement{helper, staging} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if helper.Kind() != placement.HelperCore || staging.Kind() != placement.Staging {
		t.Fatalf("placement kinds: %v / %v", helper.Kind(), staging.Kind())
	}
	return helper, staging
}

// TestSteeredSwitchFiresOnObservedInterference: the analytics working
// set grows over the run (a time-window accumulation); the steering loop
// watches the observed sim-interval inflation and fires the helper-core
// -> staging switch mid-run — no scripted SwitchAt anywhere.
func TestSteeredSwitchFiresOnObservedInterference(t *testing.T) {
	m := machine.Smoky(2)
	app := gtsApp()
	helper, staging := steerPlacements(t, m)

	const steps = 10
	mon := monitor.New("steer")
	j := flight.NewJournal(0)
	out, err := RunSteered(SteerConfig{
		First:          Config{App: app, Place: helper, Steps: steps},
		Second:         Config{App: app, Place: staging, Steps: steps},
		TotalSteps:     steps,
		AnaFootprintAt: func(s int) int64 { return int64(s) * 600_000 },
		Threshold:      1.02,
		Patience:       2,
		Mon:            mon,
		Journal:        j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Switched {
		t.Fatalf("growing footprint never triggered the switch; signals %v", out.Signals)
	}
	if out.TriggerStep <= 0 || out.TriggerStep >= steps {
		t.Fatalf("trigger step %d not mid-run", out.TriggerStep)
	}
	// The signal the loop acted on must actually exceed the threshold for
	// `patience` consecutive epochs right before the trigger.
	n := len(out.Signals)
	if n < 2 || out.Signals[n-1] <= 1.02 || out.Signals[n-2] <= 1.02 {
		t.Fatalf("trigger without sustained signal: %v", out.Signals)
	}
	if out.First.Kind != placement.HelperCore || out.Second.Kind != placement.Staging {
		t.Fatalf("phase kinds: %v -> %v", out.First.Kind, out.Second.Kind)
	}
	if out.ReconfigTime <= 0 {
		t.Fatal("switch must pay a reconfiguration cost")
	}

	// The steered outcome equals a scripted switch at the same boundary.
	scripted, err := RunSwitched(SwitchConfig{
		First:      Config{App: app, Place: helper, Steps: steps},
		Second:     Config{App: app, Place: staging, Steps: steps},
		TotalSteps: steps,
		SwitchAt:   out.TriggerStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.TotalTime-scripted.TotalTime) > 1e-9 {
		t.Fatalf("steered total %v != scripted total %v", out.TotalTime, scripted.TotalTime)
	}

	// The monitor saw both the steering observations and the run's
	// phases; the journal holds the run's events under both epochs.
	rep := mon.Snapshot()
	if rep.Timings["sim.interval"].Count == 0 || rep.Timings["sim.compute"].Count == 0 {
		t.Fatal("steering observations or phase durations missing from monitor")
	}
	var epochs [3]int
	for _, ev := range j.Snapshot() {
		if ev.Epoch == 1 || ev.Epoch == 2 {
			epochs[ev.Epoch]++
		}
	}
	if epochs[1] == 0 || epochs[2] == 0 {
		t.Fatalf("events do not cover both epochs: %v", epochs)
	}
}

// TestSteeredRunStaysPutWithoutInterference: a placement whose analytics
// never disturbs the simulation completes the whole run under First.
func TestSteeredRunStaysPutWithoutInterference(t *testing.T) {
	m := machine.Smoky(2)
	app := gtsApp()
	helper, staging := steerPlacements(t, m)

	const steps = 8
	out, err := RunSteered(SteerConfig{
		First:          Config{App: app, Place: helper, Steps: steps},
		Second:         Config{App: app, Place: staging, Steps: steps},
		TotalSteps:     steps,
		AnaFootprintAt: func(int) int64 { return 0 }, // tiny working set
		Threshold:      1.02,
		Patience:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Switched {
		t.Fatalf("switched with no observed interference; signals %v", out.Signals)
	}
	plain, err := Run(Config{App: app, Place: helper, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.TotalTime-plain.TotalTime) > 1e-9 {
		t.Fatalf("unswitched steered total %v != plain run %v", out.TotalTime, plain.TotalTime)
	}
}

// TestSwitchedRunRecordsSeamedTimeline: RunSwitched lays both epochs'
// events on one virtual timeline with the reconfig mark as the seam, and
// folds every phase plus the reconfig gap into the monitor's histograms.
func TestSwitchedRunRecordsSeamedTimeline(t *testing.T) {
	m := machine.Smoky(2)
	app := gtsApp()
	helper, staging := steerPlacements(t, m)

	const steps, at = 6, 3
	mon := monitor.New("switched")
	j := flight.NewJournal(0)
	out, err := RunSwitched(SwitchConfig{
		First:      Config{App: app, Place: helper, Steps: steps},
		Second:     Config{App: app, Place: staging, Steps: steps},
		TotalSteps: steps,
		SwitchAt:   at,
		Mon:        mon,
		Journal:    j,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := j.Snapshot()
	var reconfig *flight.Event
	firstEnd, secondStart := 0.0, math.Inf(1)
	for i := range evs {
		ev := evs[i]
		switch {
		case ev.Point == "reconfig":
			reconfig = &evs[i]
		case ev.Epoch == 1:
			if end := ev.T + ev.Dur; end > firstEnd {
				firstEnd = end
			}
			if ev.Step >= at {
				t.Fatalf("epoch-1 event for step %d past the switch: %+v", ev.Step, ev)
			}
		case ev.Epoch == 2:
			if ev.T < secondStart {
				secondStart = ev.T
			}
			if ev.Step < at {
				t.Fatalf("epoch-2 event for pre-switch step %d: %+v", ev.Step, ev)
			}
		}
	}
	if reconfig == nil {
		t.Fatal("no reconfig event recorded")
	}
	if math.Abs(reconfig.T-out.First.TotalTime) > 1e-9 || math.Abs(reconfig.Dur-out.ReconfigTime) > 1e-9 {
		t.Fatalf("reconfig event %+v, want start %v dur %v", reconfig, out.First.TotalTime, out.ReconfigTime)
	}
	// The second epoch begins after the seam, and the first ends at it.
	if firstEnd > reconfig.T+1e-9 {
		t.Fatalf("epoch-1 events end %v after reconfig start %v", firstEnd, reconfig.T)
	}
	if secondStart < reconfig.T+reconfig.Dur-1e-9 {
		t.Fatalf("epoch-2 events start %v inside the reconfig gap ending %v", secondStart, reconfig.T+reconfig.Dur)
	}
	rep := mon.Snapshot()
	if rep.Timings["sim.compute"].Count != steps || rep.Timings["reconfig"].Count != 1 ||
		math.Abs(rep.Timings["reconfig"].Total-out.ReconfigTime) > 1e-9 {
		t.Fatalf("monitor histograms %v, want %d sim.compute and the reconfig gap", rep.Timings, steps)
	}
}
