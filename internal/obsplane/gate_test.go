//go:build !race

package obsplane

import (
	"encoding/json"
	"os"
	"testing"
)

// TestObsplaneMergeBudget is the CI regression gate for the fleet
// collector's per-sweep merge cost: one Snapshot over an 8-daemon,
// 16k-event fleet (report merge + step stitching) must stay under the
// ns/op budget recorded in BENCH_obsplane.json. The budget is generous
// (~4x measured) so it catches an accidental quadratic stitch or
// per-event re-scan across sweeps, not scheduler jitter. Excluded under
// -race (instrumented builds time nothing meaningful).
func TestObsplaneMergeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate skipped in -short")
	}
	blob, err := os.ReadFile("../../BENCH_obsplane.json")
	if err != nil {
		t.Fatalf("BENCH_obsplane.json missing: %v", err)
	}
	var budget struct {
		MergeBudgetNs float64 `json:"merge_budget_ns"`
	}
	if err := json.Unmarshal(blob, &budget); err != nil {
		t.Fatalf("BENCH_obsplane.json: %v", err)
	}
	if budget.MergeBudgetNs <= 0 {
		t.Fatal("BENCH_obsplane.json has no merge_budget_ns")
	}

	res := testing.Benchmark(BenchmarkCollectorMerge)
	t.Logf("fleet snapshot %dns/op, %d allocs/op (budget %.0fns)",
		res.NsPerOp(), res.AllocsPerOp(), budget.MergeBudgetNs)
	if float64(res.NsPerOp()) > budget.MergeBudgetNs {
		t.Fatalf("collector merge %dns/op exceeds budget %.0fns/op (BENCH_obsplane.json)",
			res.NsPerOp(), budget.MergeBudgetNs)
	}
}
