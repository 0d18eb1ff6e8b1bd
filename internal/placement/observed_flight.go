package placement

import (
	"strings"

	"flexio/internal/flight"
)

// Critical-path cost inputs: beyond the scalar monitoring aggregates in
// CostInputsFromReport, the flight recorder's per-step critical paths
// say *where* each step's latency came from — which pipeline stage
// dominated, and how the step envelope splits across stages. Feeding
// those shares into CostInputs lets the allocation policies distinguish
// "steps are slow because the transport is saturated" (move analytics
// closer, prefer shm) from "steps are slow because analysis compute
// dominates" (more analytics cores, staging placement).

// ApplyCriticalPath folds a flight-recorder analysis into the cost
// inputs: PathShares gets the latency-weighted per-point shares,
// Dominant the point that owns the largest share. A nil or empty
// analysis leaves the inputs unchanged.
func (in *CostInputs) ApplyCriticalPath(a *flight.Analysis) {
	if in == nil || a == nil || len(a.Shares) == 0 {
		return
	}
	in.PathShares = make(map[string]float64, len(a.Shares))
	for point, share := range a.Shares {
		in.PathShares[point] = share
	}
	in.Dominant = a.Dominant
}

// TransportShare sums the critical-path shares attributable to data
// movement — send/recv points, transport verbs, and wait edges — as
// opposed to compute stages. Returns 0 when no shares were applied.
func (in CostInputs) TransportShare() float64 {
	var sum float64
	for point, share := range in.PathShares {
		if isTransportPoint(point) {
			sum += share
		}
	}
	return sum
}

func isTransportPoint(point string) bool {
	switch {
	case strings.HasPrefix(point, "send."),
		strings.HasPrefix(point, "recv."),
		strings.HasPrefix(point, "shm."),
		point == "wait", point == "sim.io", point == "reader.accept":
		return true
	}
	return false
}
