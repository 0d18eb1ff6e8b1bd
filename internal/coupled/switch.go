package coupled

import (
	"fmt"

	"flexio/internal/flight"
	"flexio/internal/monitor"
	"flexio/internal/placement"
)

// SwitchConfig scripts a mid-run placement switch: the pipeline runs
// SwitchAt steps under First, reconfigures (the session-epoch protocol:
// quiesce, re-handshake, re-dial changed pairs), then finishes under
// Second. First and Second must describe the same application on the
// same machine with an identical simulation-side binding — mid-run
// flexibility moves only the analytics.
type SwitchConfig struct {
	First, Second Config
	TotalSteps    int
	SwitchAt      int // steps executed under First (0 < SwitchAt < TotalSteps)

	// Mon, when non-nil, receives both epochs' per-step phase durations
	// plus a "reconfig" sample for the switch gap. Journal, when non-nil,
	// receives both epochs' causal step events on one virtual timeline
	// (epoch 1 / epoch 2) plus a "reconfig" mark spanning the gap — the
	// trace shows the drain, re-handshake and re-dial as a visible seam
	// between the two regimes. RunSwitched is sequential in virtual time,
	// so two runs from identical configs produce byte-identical journals
	// — the basis of the replay divergence check.
	Mon     *monitor.Monitor
	Journal *flight.Journal
}

// SwitchResult is the outcome of one switched run.
type SwitchResult struct {
	First, Second Result
	// Delta is the placement change applied at the switch point.
	Delta *placement.Delta
	// DrainTime models quiescing the data plane at the step boundary (an
	// in-flight asynchronously-queued step must finish flushing).
	DrainTime float64
	// RehandshakeTime models re-running the four-step distribution
	// exchange for every variable at the configured caching level.
	RehandshakeTime float64
	// RedialTime models tearing down and re-dialing the data connections
	// of every pair whose endpoint moved.
	RedialTime float64
	// ReconfigTime = DrainTime + RehandshakeTime + RedialTime.
	ReconfigTime float64
	// TotalTime includes both phases and the reconfiguration gap.
	TotalTime float64
	CPUHours  float64
}

// RunSwitched simulates a coupled run that re-places its analytics
// mid-stream. The reconfiguration cost model mirrors the runtime: the
// writer drains to a step boundary, both sides re-run the handshake
// (epoch bump invalidates all cached distributions, so the full four
// phases are paid regardless of caching level), and each pair touching a
// moved, added, or transport-flipped rank re-dials its data connection.
func RunSwitched(cfg SwitchConfig) (SwitchResult, error) {
	var out SwitchResult
	if cfg.TotalSteps <= 1 || cfg.SwitchAt <= 0 || cfg.SwitchAt >= cfg.TotalSteps {
		return out, fmt.Errorf("coupled: switch at step %d of %d is not mid-run", cfg.SwitchAt, cfg.TotalSteps)
	}
	delta, err := placement.Replace(cfg.First.Place, cfg.Second.Place)
	if err != nil {
		return out, err
	}
	out.Delta = delta

	first := cfg.First
	first.Steps = cfg.SwitchAt
	if cfg.Mon != nil {
		first.Mon, first.MonEpoch = cfg.Mon, 1
	}
	if cfg.Journal != nil {
		first.Journal, first.MonEpoch = cfg.Journal, 1
	}
	if out.First, err = Run(first); err != nil {
		return out, err
	}

	m := cfg.First.Machine
	if m == nil {
		m = cfg.First.Place.Spec.Machine
	}
	spec := cfg.First.Place.Spec

	// Drain: synchronous writers are already at a boundary when the
	// request parks; asynchronous writers may have a queued step whose
	// movement must complete first.
	if cfg.First.Async {
		out.DrainTime = out.First.MoveTime
	}

	// Re-handshake: all four phases for every (effective) variable across
	// the M writer ranks, plus the selection message — cached state is
	// epoch-invalidated, so this is paid even under CACHING_ALL.
	vars := maxInt(1, cfg.First.App.VarsPerStep)
	varsEff := float64(vars)
	if cfg.First.Batching {
		varsEff = 1
	}
	perMsg := m.Net.Latency + m.Net.SmallMsgOverhead
	out.RehandshakeTime = (4*varsEff + 1) * float64(spec.NSim) * perMsg

	// Re-dial: a connection handshake (request + accept) per pair whose
	// reader moved, was added, or flipped transports.
	changed := make(map[int]bool)
	for _, r := range delta.MovedAna {
		changed[r] = true
	}
	oldN := len(cfg.First.Place.AnaCore)
	newN := len(cfg.Second.Place.AnaCore)
	for r := oldN; r < newN; r++ {
		changed[r] = true
	}
	for _, f := range delta.Flipped {
		changed[f.Reader] = true
	}
	out.RedialTime = float64(spec.NSim*len(changed)) * 2 * perMsg

	out.ReconfigTime = out.DrainTime + out.RehandshakeTime + out.RedialTime

	// The second phase runs after the first plus the reconfiguration gap;
	// its events continue the same timeline and step numbering under the
	// bumped epoch.
	second := cfg.Second
	second.Steps = cfg.TotalSteps - cfg.SwitchAt
	if cfg.Mon != nil || cfg.Journal != nil {
		second.MonEpoch = 2
		second.MonBase = out.First.TotalTime + out.ReconfigTime
		second.MonStep = cfg.SwitchAt
	}
	if cfg.Mon != nil {
		second.Mon = cfg.Mon
		cfg.Mon.Observe("reconfig", out.ReconfigTime)
	}
	if cfg.Journal != nil {
		second.Journal = cfg.Journal
		cfg.Journal.Record(flight.Event{
			Kind: flight.KindMark, Point: "reconfig",
			Step: int64(cfg.SwitchAt), Epoch: 2,
			T: out.First.TotalTime, Dur: out.ReconfigTime,
		})
	}
	if out.Second, err = Run(second); err != nil {
		return out, err
	}

	out.TotalTime = out.First.TotalTime + out.ReconfigTime + out.Second.TotalTime
	nodes := maxInt(out.First.NodesUsed, out.Second.NodesUsed)
	out.CPUHours = out.First.CPUHours + out.Second.CPUHours +
		float64(nodes)*out.ReconfigTime/3600
	return out, nil
}
