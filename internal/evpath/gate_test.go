package evpath

import (
	"testing"

	"flexio/internal/gate"
)

func TestGates(t *testing.T) {
	nop := tcpStatsNop()
	gate.Check(t, map[string]gate.Measure{
		"evpath.tcp_stats_nop_overhead_ns": gate.Overhead(nop, tcpStatsBaseline),
		"evpath.tcp_stats_nop_allocs":      gate.Allocs(nop),
	})
}
