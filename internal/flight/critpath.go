package flight

import (
	"fmt"
	"sort"
)

// Critical-path extraction over the happens-before graph.
//
// Events within one step form a DAG: explicit Parent links are the
// primary edges (the recorder threads them through flush → pack → send →
// assemble → plugin); where a parent is absent we infer edges from the
// causal model — a Recv happens-after the Send on the same channel, and
// events on one rank happen in program order. The critical path of a
// step is the chain that ends at the step's last-finishing event and,
// walking parents backward, covers the largest span of the step. Gaps
// between a parent's finish and a child's start become explicit "wait"
// edges, so the sum of edge durations always equals the path envelope
// (finish − start) exactly; against the step's event envelope it agrees
// to within the recording skew (≡ 0 in virtual time), which is what
// `make trace` gates at 5%.

// Edge is one hop of a step's critical path.
type Edge struct {
	// Point is the stage the time is attributed to ("writer.pack",
	// "send.rdma", "wait", ...).
	Point string  `json:"point"`
	Kind  string  `json:"kind"`
	Rank  int     `json:"rank"`
	Start float64 `json:"start"`
	Dur   float64 `json:"dur"`
	Bytes int64   `json:"bytes,omitempty"`
}

// StepPath is the critical path of one step.
type StepPath struct {
	Step    int64   `json:"step"`
	Epoch   uint64  `json:"epoch,omitempty"`
	Start   float64 `json:"start"`
	Finish  float64 `json:"finish"`
	Latency float64 `json:"latency"` // Finish - Start
	// Edges is the dominating chain, oldest first; durations sum to
	// Latency by construction (gaps appear as "wait" edges).
	Edges []Edge `json:"edges"`
	// Shares attributes Latency fractions to each point on the chain.
	Shares map[string]float64 `json:"shares"`
	// Dominant is the point with the largest share.
	Dominant string `json:"dominant"`
}

// Analysis aggregates critical paths across steps.
type Analysis struct {
	Steps []StepPath `json:"steps"`
	// Shares is the latency-weighted average of per-step shares: the
	// fraction of total critical-path time each point accounts for.
	Shares map[string]float64 `json:"shares"`
	// Dominant is the point with the largest aggregate share.
	Dominant string `json:"dominant"`
	// TotalLatency sums step latencies (seconds of critical path).
	TotalLatency float64 `json:"total_latency"`
}

// Analyze groups events by step, extracts each step's critical path and
// aggregates stage shares. Events with Step < 0 (un-stepped marks) are
// ignored. The input order does not matter.
func Analyze(evs []Event) Analysis {
	bySteps := map[int64][]Event{}
	for _, ev := range evs {
		if ev.Step < 0 || ev.Kind == KindMark && ev.Dur == 0 {
			continue
		}
		bySteps[ev.Step] = append(bySteps[ev.Step], ev)
	}
	steps := make([]int64, 0, len(bySteps))
	for s := range bySteps {
		steps = append(steps, s)
	}
	sort.Slice(steps, func(i, k int) bool { return steps[i] < steps[k] })

	an := Analysis{Shares: map[string]float64{}}
	for _, s := range steps {
		sp := stepPath(s, bySteps[s])
		if sp == nil {
			continue
		}
		an.Steps = append(an.Steps, *sp)
		an.TotalLatency += sp.Latency
		for pt, share := range sp.Shares {
			an.Shares[pt] += share * sp.Latency
		}
	}
	if an.TotalLatency > 0 {
		best := ""
		for pt := range an.Shares {
			an.Shares[pt] /= an.TotalLatency
			if best == "" || an.Shares[pt] > an.Shares[best] || (an.Shares[pt] == an.Shares[best] && pt < best) {
				best = pt
			}
		}
		an.Dominant = best
	}
	return an
}

// stepPath extracts one step's critical path. Returns nil when the step
// has no events with extent.
func stepPath(step int64, evs []Event) *StepPath {
	if len(evs) == 0 {
		return nil
	}
	// Deterministic processing order: by start time, then ID.
	sort.Slice(evs, func(i, k int) bool {
		if evs[i].T != evs[k].T {
			return evs[i].T < evs[k].T
		}
		return evs[i].ID < evs[k].ID
	})

	byID := make(map[EventID]int, len(evs))
	for i := range evs {
		byID[evs[i].ID] = i
	}

	// Infer fallback edges where explicit parents are missing: a recv's
	// parent is the latest same-channel send finishing at or before it;
	// otherwise the previous event on the same rank.
	lastSendOnChannel := map[string]int{}
	lastOnRank := map[int]int{}
	parent := make([]int, len(evs)) // index into evs, -1 = root
	for i := range evs {
		parent[i] = -1
		if p, ok := byID[evs[i].Parent]; ok && p != i {
			parent[i] = p
		} else if evs[i].Kind == KindRecv && evs[i].Channel != "" {
			if s, ok := lastSendOnChannel[evs[i].Channel]; ok {
				parent[i] = s
			}
		}
		if parent[i] < 0 {
			if p, ok := lastOnRank[evs[i].Rank]; ok {
				parent[i] = p
			}
		}
		if evs[i].Kind == KindSend && evs[i].Channel != "" {
			lastSendOnChannel[evs[i].Channel] = i
		}
		lastOnRank[evs[i].Rank] = i
	}

	// Step envelope and the last-finishing event (the sink).
	start, finish := evs[0].T, evs[0].finish()
	sink := 0
	var epoch uint64
	for i := range evs {
		if evs[i].T < start {
			start = evs[i].T
		}
		if f := evs[i].finish(); f > finish || (f == finish && evs[i].ID > evs[sink].ID) {
			finish = f
			sink = i
		}
		if evs[i].Epoch > epoch {
			epoch = evs[i].Epoch
		}
	}
	if finish <= start {
		return nil
	}

	// Walk parents back from the sink; clamp each hop to the uncovered
	// prefix so overlapping stages don't double-count, and materialise
	// gaps as wait edges.
	var chain []Edge
	cover := finish // everything at or after cover is attributed
	for i := sink; i >= 0 && cover > start; {
		ev := &evs[i]
		s, f := ev.T, ev.finish()
		if f > cover {
			f = cover
		}
		if f > s {
			chain = append(chain, Edge{
				Point: ev.Point, Kind: ev.Kind.String(), Rank: ev.Rank,
				Start: s, Dur: f - s, Bytes: ev.Bytes,
			})
			cover = s
		}
		p := parent[i]
		if p < 0 || p == i {
			break
		}
		// Gap between the parent's finish and the chain head is wait.
		if pf := evs[p].finish(); pf < cover {
			lo := pf
			if lo < start {
				lo = start
			}
			if cover > lo {
				chain = append(chain, Edge{Point: "wait", Kind: "wait", Rank: ev.Rank, Start: lo, Dur: cover - lo})
				cover = lo
			}
		}
		i = p
	}
	// Anything before the chain head (root started after the envelope
	// start) is attributed to wait on the root's rank.
	if cover > start {
		rank := 0
		if len(chain) > 0 {
			rank = chain[len(chain)-1].Rank
		}
		chain = append(chain, Edge{Point: "wait", Kind: "wait", Rank: rank, Start: start, Dur: cover - start})
	}
	// Oldest first.
	for l, r := 0, len(chain)-1; l < r; l, r = l+1, r-1 {
		chain[l], chain[r] = chain[r], chain[l]
	}

	sp := &StepPath{
		Step: step, Epoch: epoch,
		Start: start, Finish: finish, Latency: finish - start,
		Edges: chain, Shares: map[string]float64{},
	}
	for _, e := range chain {
		sp.Shares[e.Point] += e.Dur / sp.Latency
	}
	best := ""
	for pt := range sp.Shares {
		if best == "" || sp.Shares[pt] > sp.Shares[best] || (sp.Shares[pt] == sp.Shares[best] && pt < best) {
			best = pt
		}
	}
	sp.Dominant = best
	return sp
}

// EdgeSum returns the sum of a step path's edge durations; by
// construction it equals Latency (the trace drill checks it against
// each step's event envelope).
func (sp *StepPath) EdgeSum() float64 {
	var sum float64
	for _, e := range sp.Edges {
		sum += e.Dur
	}
	return sum
}

// String renders a one-line summary: "step 3: 12.5ms = writer.pack 40% +
// send.rdma 35% + ...".
func (sp *StepPath) String() string {
	s := fmt.Sprintf("step %d: %.6fs dominant=%s", sp.Step, sp.Latency, sp.Dominant)
	return s
}
