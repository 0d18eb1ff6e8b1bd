//go:build !race

package evpath

import (
	"encoding/json"
	"os"
	"testing"

	"flexio/internal/flight"
)

// The wire transport adds two touches to every data send even when
// nobody is watching: the atomic stat counters and the (usually nil)
// journal check in record(). These benchmarks isolate that disabled-path
// cost so TestTCPStatsNopBudget can gate it like the recorder's no-sink
// stage (TestFlightNopOverheadBudget).

var gateSink uint64

func BenchmarkTCPStatsBaseline(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += uint64(i)
	}
	gateSink = acc
}

func BenchmarkTCPStatsNop(b *testing.B) {
	st := newTCPState(NewNet(nil))
	var acc uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += uint64(i)
		st.bumpTX(128)
		st.record(flight.KindSend, "tcp.send", "bench", 128)
	}
	gateSink = acc
	b.ReportAllocs()
}

// TestTCPStatsNopBudget is the CI regression gate for the wire
// transport's per-send accounting when no journal is attached: counter
// bumps plus the nil-journal branch must stay under the budget recorded
// in BENCH_monitor.json, and must not allocate. Excluded under -race.
func TestTCPStatsNopBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate skipped in -short")
	}
	blob, err := os.ReadFile("../../BENCH_monitor.json")
	if err != nil {
		t.Fatalf("BENCH_monitor.json missing: %v", err)
	}
	var budget struct {
		TCPStatsNopBudgetNs float64 `json:"tcp_stats_nop_budget_ns"`
	}
	if err := json.Unmarshal(blob, &budget); err != nil {
		t.Fatalf("BENCH_monitor.json: %v", err)
	}
	if budget.TCPStatsNopBudgetNs <= 0 {
		t.Fatal("BENCH_monitor.json has no tcp_stats_nop_budget_ns")
	}

	base := testing.Benchmark(BenchmarkTCPStatsBaseline)
	nop := testing.Benchmark(BenchmarkTCPStatsNop)
	overhead := float64(nop.NsPerOp()) - float64(base.NsPerOp())
	if overhead < 0 {
		overhead = 0
	}
	t.Logf("baseline %dns/op, nop stats %dns/op, overhead %.1fns (budget %.1fns)",
		base.NsPerOp(), nop.NsPerOp(), overhead, budget.TCPStatsNopBudgetNs)
	if overhead > budget.TCPStatsNopBudgetNs {
		t.Fatalf("TCP stats nil-path overhead %.1fns/op exceeds budget %.1fns/op (BENCH_monitor.json)",
			overhead, budget.TCPStatsNopBudgetNs)
	}
	if allocs := nop.AllocsPerOp(); allocs != 0 {
		t.Fatalf("TCP stats nil path allocates (%d allocs/op)", allocs)
	}
}
