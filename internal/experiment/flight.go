package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"flexio/internal/coupled"
	"flexio/internal/flight"
	"flexio/internal/machine"
	"flexio/internal/placement"
)

// Flight-recorder experiments: the trace drill journals the switched
// coupled scenario and extracts its per-step critical path
// (critpathScenario, `make trace`); `replay` re-runs the same scenario
// from the same configuration and proves the event streams are
// byte-identical — or, with -perturb, that an injected model change is
// caught as a divergence (`make replay`).

// The scenario both experiments journal: the GTS helper-core -> staging
// switched run on Smoky (the Section II.G shape), small enough to read
// the report by eye and big enough to cross a reconfiguration seam.
const (
	flightSteps    = 8
	flightSwitchAt = 4
)

// flightScenario runs the switched scenario into journal j. perturb
// scales the per-process output volume (0 = faithful re-run; any
// non-zero value models a code or input change that must show up as a
// replay divergence).
func flightScenario(j *flight.Journal, perturb float64) (coupled.SwitchResult, error) {
	m := machine.Smoky(2)
	app := gtsApp()
	app.OutputBytesPerProc *= 1 + perturb
	spec := gtsSpec(m, 4, 4, 1)
	simCore := []int{0, 1, 4, 5}
	helper := &placement.Placement{Spec: spec, Policy: "manual-helper",
		SimCore: simCore, AnaCore: []int{2, 3, 6, 7}}
	staging := &placement.Placement{Spec: spec, Policy: "manual-staging",
		SimCore: simCore, AnaCore: []int{16, 17, 18, 19}}
	for _, p := range []*placement.Placement{helper, staging} {
		if err := p.Validate(); err != nil {
			return coupled.SwitchResult{}, err
		}
	}
	return coupled.RunSwitched(coupled.SwitchConfig{
		First:      coupled.Config{App: app, Place: helper, Steps: flightSteps},
		Second:     coupled.Config{App: app, Place: staging, Steps: flightSteps},
		TotalSteps: flightSteps,
		SwitchAt:   flightSwitchAt,
		Journal:    j,
	})
}

// ReplayRun executes the scenario twice and diffs the journals. A clean
// re-run must produce byte-identical event streams (same FNV
// fingerprint); with perturb the second run carries a small model change
// and the checker must catch it. Divergence — injected or not — returns
// an error, so flexbench exits non-zero exactly when the streams differ.
func ReplayRun(perturb bool) (*Figure, error) {
	fig := &Figure{
		ID:     "REPLAY",
		Title:  "Replay divergence check over the switched coupled run",
		XLabel: "run",
		YLabel: "journal events",
	}

	a := flight.NewJournal(0)
	if _, err := flightScenario(a, 0); err != nil {
		return nil, err
	}
	eps := 0.0
	if perturb {
		eps = 1e-4
	}
	b := flight.NewJournal(0)
	if _, err := flightScenario(b, eps); err != nil {
		return nil, err
	}

	ha, hb := a.Hash(), b.Hash()
	fig.Series = append(fig.Series, Series{Label: "events journaled",
		X: []float64{0, 1}, Y: []float64{float64(a.Seen()), float64(b.Seen())}})
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("run A: %d events, stream hash %016x", a.Seen(), ha),
		fmt.Sprintf("run B: %d events, stream hash %016x (perturb=%v)", b.Seen(), hb, perturb))

	div := flight.Diff(a.Snapshot(), b.Snapshot())
	switch {
	case !perturb && div == nil && ha == hb:
		fig.Notes = append(fig.Notes, "replay clean: byte-identical event streams")
		return fig, nil
	case perturb && (div != nil || ha != hb):
		fig.Notes = append(fig.Notes, "injected divergence detected: "+div.Error())
		return fig, fmt.Errorf("replay: injected divergence detected: %v", div)
	case perturb:
		return fig, fmt.Errorf("replay: perturbation was not detected (hashes %016x == %016x)", ha, hb)
	default:
		return fig, fmt.Errorf("replay: model is not deterministic: %v", div)
	}
}

// critpathScenario journals the switched scenario, extracts each step's
// critical path and appends the critical-path shares (one series) and
// the per-step report to fig. Each step's path edges must sum to the
// step's event envelope within 5% — an invariant Analyze maintains over
// the one record stream it reads (it inserts explicit wait edges and
// clamps overlaps), not an independent measurement; the check guards
// that invariant.
func critpathScenario(fig *Figure) (*flight.Journal, flight.Analysis, error) {
	j := flight.NewJournal(0)
	if _, err := flightScenario(j, 0); err != nil {
		return nil, flight.Analysis{}, err
	}
	evs := j.Snapshot()
	an := flight.Analyze(evs)
	if len(an.Steps) == 0 {
		return nil, an, fmt.Errorf("critpath: no step events journaled")
	}

	type envelope struct{ lo, hi float64 }
	envs := map[int64]envelope{}
	for _, ev := range evs {
		e, ok := envs[ev.Step]
		if !ok {
			e = envelope{lo: ev.T, hi: ev.T + ev.Dur}
		} else {
			e.lo = math.Min(e.lo, ev.T)
			e.hi = math.Max(e.hi, ev.T+ev.Dur)
		}
		envs[ev.Step] = e
	}
	var worst float64
	for i := range an.Steps {
		st := &an.Steps[i]
		e := envs[st.Step]
		span := e.hi - e.lo
		if span <= 0 {
			return nil, an, fmt.Errorf("critpath: step %d event envelope is empty", st.Step)
		}
		skew := math.Abs(st.EdgeSum()-span) / span
		worst = math.Max(worst, skew)
		if skew > 0.05 {
			return nil, an, fmt.Errorf("critpath: step %d path edges sum to %.6fs but its events span %.6fs (%.1f%% skew, budget 5%%)",
				st.Step, st.EdgeSum(), span, 100*skew)
		}
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"critical path vs event envelope (Analyze's own invariant): worst skew %.3f%% over %d steps (budget 5%%)",
		100*worst, len(an.Steps)))
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"dominant point: %s (%.1f%% of %.6fs total step latency)",
		an.Dominant, 100*an.Shares[an.Dominant], an.TotalLatency))

	points := make([]string, 0, len(an.Shares))
	for pt := range an.Shares {
		points = append(points, pt)
	}
	sort.Slice(points, func(i, k int) bool {
		if an.Shares[points[i]] != an.Shares[points[k]] {
			return an.Shares[points[i]] > an.Shares[points[k]]
		}
		return points[i] < points[k]
	})
	s := Series{Label: "critical-path share"}
	for i, pt := range points {
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, an.Shares[pt])
		fig.Notes = append(fig.Notes, fmt.Sprintf("x=%d: point %q, share %.1f%%", i, pt, 100*an.Shares[pt]))
	}
	fig.Series = append(fig.Series, s)

	// The full per-step breakdown (flight.WriteReport's format), so the
	// drill shows each step's dominating edge chain, not just the
	// aggregate shares.
	var report strings.Builder
	if err := flight.WriteReport(&report, an); err != nil {
		return nil, an, err
	}
	for _, line := range strings.Split(strings.TrimRight(report.String(), "\n"), "\n") {
		fig.Notes = append(fig.Notes, line)
	}
	return j, an, nil
}
