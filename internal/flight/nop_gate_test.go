//go:build !race

package flight

import (
	"encoding/json"
	"os"
	"testing"
)

// TestFlightNopOverheadBudget is the CI regression gate for the
// recorder-off path: the Begin/End stage every core data-path site opens,
// with neither a journal nor an observer attached, must cost no more
// than the budget in BENCH_flight.json (a few ns — one nil branch per
// call) and zero allocations. Excluded under -race (instrumented builds
// time nothing meaningful).
func TestFlightNopOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate skipped in -short")
	}
	blob, err := os.ReadFile("../../BENCH_flight.json")
	if err != nil {
		t.Fatalf("BENCH_flight.json missing: %v", err)
	}
	var budget struct {
		NopJournalBudgetNs float64 `json:"nop_journal_budget_ns"`
	}
	if err := json.Unmarshal(blob, &budget); err != nil {
		t.Fatalf("BENCH_flight.json: %v", err)
	}
	if budget.NopJournalBudgetNs <= 0 {
		t.Fatal("BENCH_flight.json has no nop_journal_budget_ns")
	}

	base := testing.Benchmark(BenchmarkJournalBaseline)
	nop := testing.Benchmark(BenchmarkJournalNop)
	overhead := float64(nop.NsPerOp()) - float64(base.NsPerOp())
	if overhead < 0 {
		overhead = 0 // within noise: the nop path measured faster
	}
	t.Logf("baseline %dns/op, no-sink stage %dns/op, overhead %.1fns (budget %.1fns)",
		base.NsPerOp(), nop.NsPerOp(), overhead, budget.NopJournalBudgetNs)
	if overhead > budget.NopJournalBudgetNs {
		t.Fatalf("no-sink stage overhead %.1fns/op exceeds budget %.1fns/op (BENCH_flight.json)",
			overhead, budget.NopJournalBudgetNs)
	}
	if allocs := nop.AllocsPerOp(); allocs != 0 {
		t.Fatalf("no-sink stage allocates (%d allocs/op)", allocs)
	}
}
