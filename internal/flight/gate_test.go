package flight

import (
	"testing"

	"flexio/internal/gate"
)

func TestGates(t *testing.T) {
	gate.Check(t, map[string]gate.Measure{
		"flight.nop_stage_overhead_ns": gate.Overhead(journalNop, bareWork),
		"flight.nop_stage_allocs":      gate.Allocs(journalNop),
	})
}
