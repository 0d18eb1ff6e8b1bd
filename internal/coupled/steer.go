package coupled

import (
	"fmt"

	"flexio/internal/flight"
	"flexio/internal/monitor"
	"flexio/internal/placement"
)

// Observation-driven re-placement (Section II.G): instead of scripting
// the switch step, RunSteered watches the monitoring signal the writer
// side would ship each epoch — the ratio of the observed simulation
// interval to its interference-free baseline — and triggers the
// helper-core -> staging switch when sustained interference crosses a
// threshold. The analytics footprint may grow over time (e.g. a
// time-window accumulation), which is exactly the situation where an
// a-priori placement goes stale mid-run.

// SteerConfig describes a steered run.
type SteerConfig struct {
	// First is the starting regime; Second is the regime to switch to
	// when the interference trigger fires.
	First, Second Config
	TotalSteps    int

	// AnaFootprintAt returns the analytics cache footprint at a given
	// step, modeling a working set that changes over the run. Nil means
	// the static First.App.AnaFootprint.
	AnaFootprintAt func(step int) int64

	// Threshold is the sim-interval inflation ratio that counts as
	// interference (e.g. 1.10 = 10% slowdown); Patience is how many
	// consecutive epochs must exceed it before the switch fires
	// (default 1).
	Threshold float64
	Patience  int

	// Mon, when non-nil, receives the per-epoch interference
	// observations and, after the decision, the full run's phase
	// durations (via RunSwitched or Run).
	Mon *monitor.Monitor

	// Journal, when non-nil, receives the chosen execution's causal
	// step events; RunSteered analyzes them afterwards and folds the
	// critical-path shares into SteerResult.CostInputs.
	Journal *flight.Journal

	// RequireDominant, when non-empty, adds a flight-recorder gate to
	// the interference trigger: before committing to the switch,
	// RunSteered journals a short probe of the First regime and only
	// re-places if the probe's critical path is dominated by the named
	// point (e.g. "sim.io" — switch only when movement, not compute,
	// owns the step). This keeps a noisy interference signal from
	// paying the reconfiguration cost when the critical path says the
	// new regime cannot help.
	RequireDominant string
}

// SteerResult is the outcome of a steered run.
type SteerResult struct {
	SwitchResult
	// Switched reports whether the observed-interference trigger fired
	// mid-run; if false, the whole run executed under First and only
	// SwitchResult.First/TotalTime/CPUHours are meaningful.
	Switched bool
	// TriggerStep is the first step executed under Second (valid when
	// Switched).
	TriggerStep int
	// Signals is the per-step interference signal the steering loop saw
	// (observed interval / baseline), for plotting and tests.
	Signals []float64
	// Suppressed reports that the interference trigger fired but the
	// RequireDominant critical-path gate vetoed the switch.
	Suppressed bool
	// CostInputs are the placement cost inputs observed from the run:
	// monitoring aggregates when Mon was supplied, critical-path shares
	// when Journal was supplied (see CostInputs.PathShares/Dominant).
	CostInputs placement.CostInputs
}

// RunSteered simulates the steering loop step by step: each step it
// observes the baseline compute interval and the cache-inflated one for
// the analytics footprint at that step, folds both into cumulative
// monitoring reports, and feeds the per-epoch delta signal to
// monitor.Steering. When the trigger fires at step k, the run is replayed
// as a RunSwitched with SwitchAt=k+1 — the boundary semantics of the
// session protocol (the step that revealed the interference still
// completes under the old regime). If the trigger never fires (or fires
// on the final step, too late to re-place), the run completes under
// First.
func RunSteered(cfg SteerConfig) (SteerResult, error) {
	var out SteerResult
	if cfg.TotalSteps <= 0 {
		return out, fmt.Errorf("coupled: steered run needs steps")
	}
	p := cfg.First.Place
	if p == nil {
		return out, fmt.Errorf("coupled: nil placement")
	}
	m := cfg.First.Machine
	if m == nil {
		m = p.Spec.Machine
	}
	app := cfg.First.App
	threads := p.Spec.SimThreads
	if threads < 1 {
		threads = 1
	}
	footprint := cfg.AnaFootprintAt
	if footprint == nil {
		footprint = func(int) int64 { return app.AnaFootprint }
	}

	// The steering loop observes into its own monitor when the caller did
	// not supply one: Steering consumes cumulative snapshots.
	obs := cfg.Mon
	if obs == nil {
		obs = monitor.New("steer")
	}
	st := &monitor.Steering{
		Point:     "sim.interval",
		Baseline:  "sim.compute",
		Threshold: cfg.Threshold,
		Patience:  cfg.Patience,
	}

	baseline := app.SimComputePerInterval(threads)
	shares := anaSharesSimNUMA(p, m)
	switchAt := -1
	for s := 0; s < cfg.TotalSteps; s++ {
		factor := 1.0
		if shares {
			factor = app.Cache.Slowdown(m.Node.L3PerNUMA, app.SimWorkingSetPerNUMA, footprint(s))
		}
		obs.Observe("sim.compute", baseline)
		obs.Observe("sim.interval", baseline*factor)
		fired := st.Observe(obs.Snapshot())
		out.Signals = append(out.Signals, st.LastSignal())
		if fired && s+1 < cfg.TotalSteps {
			switchAt = s + 1
			break
		}
	}

	// Critical-path gate: the interference signal says the sim slowed
	// down; the probe's critical path says whether re-placing the
	// analytics can actually shorten the step.
	if switchAt >= 0 && cfg.RequireDominant != "" {
		dom, err := probeDominant(cfg.First)
		if err != nil {
			return out, err
		}
		if dom != cfg.RequireDominant {
			out.Suppressed = true
			switchAt = -1
		}
	}

	if switchAt < 0 {
		whole := cfg.First
		whole.Steps = cfg.TotalSteps
		whole.Mon = cfg.Mon
		whole.Journal = cfg.Journal
		res, err := Run(whole)
		if err != nil {
			return out, err
		}
		out.First = res
		out.TotalTime = res.TotalTime
		out.CPUHours = res.CPUHours
		out.CostInputs = steerCostInputs(cfg)
		return out, nil
	}

	sw, err := RunSwitched(SwitchConfig{
		First:      cfg.First,
		Second:     cfg.Second,
		TotalSteps: cfg.TotalSteps,
		SwitchAt:   switchAt,
		Mon:        cfg.Mon,
		Journal:    cfg.Journal,
	})
	if err != nil {
		return out, err
	}
	out.SwitchResult = sw
	out.Switched = true
	out.TriggerStep = switchAt
	out.CostInputs = steerCostInputs(cfg)
	return out, nil
}

// probeDominant journals a short run of the given regime into a scratch
// recorder and returns the dominant critical-path point. The probe is
// virtual-time only — it costs nothing on the modeled timeline.
func probeDominant(regime Config) (string, error) {
	probe := regime
	probe.Steps = 2
	probe.Mon = nil
	probe.Journal = flight.NewJournal(0)
	probe.MonEpoch = 0
	probe.MonBase = 0
	probe.MonStep = 0
	if _, err := Run(probe); err != nil {
		return "", err
	}
	a := flight.Analyze(probe.Journal.Snapshot())
	return a.Dominant, nil
}

// steerCostInputs distills whatever observability the caller attached
// into placement cost inputs: monitoring aggregates from Mon,
// critical-path shares from Journal.
func steerCostInputs(cfg SteerConfig) placement.CostInputs {
	in := placement.CostInputs{SimSlowdown: 1}
	if cfg.Mon != nil {
		in = placement.CostInputsFromReport(cfg.Mon.Snapshot(), int64(cfg.TotalSteps))
	}
	if cfg.Journal != nil {
		a := flight.Analyze(cfg.Journal.Snapshot())
		in.ApplyCriticalPath(&a)
	}
	return in
}
