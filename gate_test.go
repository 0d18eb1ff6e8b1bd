package main

import (
	"fmt"
	"testing"

	"flexio/internal/gate"
)

// The mapping sweep is gated as a ratio over gate.Scan, a fixed kernel
// with no repository code in it, so a host that runs everything slower
// moves both sides alike; its allocations are exact counts.
func TestGates(t *testing.T) {
	rows := map[string]gate.Measure{}
	for _, scale := range []struct{ m, n int }{{64, 4}, {512, 16}, {2048, 64}} {
		op := sweepMapping(t, scale.m, scale.n)
		name := fmt.Sprintf("ndarray.mapping_%dx%d", scale.m, scale.n)
		rows[name+"_ratio"] = gate.Ratio(op, gate.Scan)
		rows[name+"_allocs"] = gate.Allocs(op)
	}
	gate.Check(t, rows)
}
