package coupled_test

import (
	"testing"

	. "flexio/internal/coupled"
	"flexio/internal/machine"
	"flexio/internal/placement"
)

// TestGTSSwitchHelperCoreToStaging scripts the paper's motivating
// flexibility scenario as a mid-run switch: GTS analytics starts on
// helper cores (shm transport) and moves to staging nodes (tcp) at the
// half-way step boundary, paying a modeled reconfiguration cost.
func TestGTSSwitchHelperCoreToStaging(t *testing.T) {
	m := machine.Smoky(2)
	app := gtsApp()
	spec := buildGTSSpec(m, 8, 1)

	simCore := []int{0, 1, 2, 3, 4, 5, 6, 7}
	helper := &placement.Placement{Spec: spec, Policy: "manual-helper",
		SimCore: simCore, AnaCore: []int{8, 9, 10, 11, 12, 13, 14, 15}}
	staging := &placement.Placement{Spec: spec, Policy: "manual-staging",
		SimCore: simCore, AnaCore: []int{16, 17, 18, 19, 20, 21, 22, 23}}
	if err := helper.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := staging.Validate(); err != nil {
		t.Fatal(err)
	}

	const steps = 10
	out, err := RunSwitched(SwitchConfig{
		First:      Config{App: app, Place: helper, Steps: steps},
		Second:     Config{App: app, Place: staging, Steps: steps},
		TotalSteps: steps,
		SwitchAt:   5,
	})
	if err != nil {
		t.Fatal(err)
	}

	if out.First.Kind != placement.HelperCore {
		t.Errorf("first phase kind = %v, want helper-core", out.First.Kind)
	}
	if out.Second.Kind != placement.Staging {
		t.Errorf("second phase kind = %v, want staging", out.Second.Kind)
	}
	if !out.Delta.KindChanged {
		t.Error("delta must report the kind change")
	}
	if len(out.Delta.MovedAna) != 8 {
		t.Errorf("moved %d ranks, want 8", len(out.Delta.MovedAna))
	}
	// Every surviving pair flips shm -> tcp.
	if len(out.Delta.Flipped) != 64 {
		t.Errorf("flipped %d pairs, want 64", len(out.Delta.Flipped))
	}
	if out.ReconfigTime <= 0 {
		t.Error("reconfiguration must cost time")
	}
	if out.RehandshakeTime <= 0 || out.RedialTime <= 0 {
		t.Errorf("rehandshake=%g redial=%g must both be positive",
			out.RehandshakeTime, out.RedialTime)
	}
	if out.DrainTime != 0 {
		t.Errorf("sync writer drain = %g, want 0 (already at boundary)", out.DrainTime)
	}
	want := out.First.TotalTime + out.ReconfigTime + out.Second.TotalTime
	if out.TotalTime != want {
		t.Errorf("TotalTime = %g, want %g", out.TotalTime, want)
	}
	// The switch cost must be a small perturbation, not a phase-sized one.
	if out.ReconfigTime > 0.1*out.TotalTime {
		t.Errorf("reconfig %.3fs dominates total %.3fs", out.ReconfigTime, out.TotalTime)
	}

	// Async first phase pays a drain.
	outAsync, err := RunSwitched(SwitchConfig{
		First:      Config{App: app, Place: helper, Steps: steps, Async: true},
		Second:     Config{App: app, Place: staging, Steps: steps},
		TotalSteps: steps,
		SwitchAt:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if outAsync.DrainTime <= 0 {
		t.Error("async writer must pay a drain at the switch boundary")
	}
}

func TestRunSwitchedValidation(t *testing.T) {
	m := machine.Smoky(2)
	app := gtsApp()
	spec := buildGTSSpec(m, 8, 1)
	p := &placement.Placement{Spec: spec, Policy: "manual",
		SimCore: []int{0, 1, 2, 3, 4, 5, 6, 7}, AnaCore: []int{8, 9, 10, 11, 12, 13, 14, 15}}
	cfg := Config{App: app, Place: p, Steps: 10}

	for _, at := range []int{0, 10, -1} {
		if _, err := (RunSwitched(SwitchConfig{First: cfg, Second: cfg, TotalSteps: 10, SwitchAt: at})); err == nil {
			t.Errorf("SwitchAt=%d must be rejected", at)
		}
	}
	// Sim-side rebinding is rejected via placement.Replace.
	moved := &placement.Placement{Spec: spec, Policy: "manual",
		SimCore: []int{16, 17, 18, 19, 20, 21, 22, 23}, AnaCore: []int{8, 9, 10, 11, 12, 13, 14, 15}}
	if _, err := RunSwitched(SwitchConfig{
		First: cfg, Second: Config{App: app, Place: moved, Steps: 10},
		TotalSteps: 10, SwitchAt: 5,
	}); err == nil {
		t.Error("sim rebinding mid-run must be rejected")
	}
}
