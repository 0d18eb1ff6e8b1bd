package gate

import "testing"

// A ratio row must not read low when interference slows only its
// reference: here the op runs clean at 5 µs per iteration (bar a few
// slowed chunks), while half of the reference's chunks are slowed
// threefold. Each side's low quantile reads 5; the low quantile of
// per-chunk ratios would read 1.67, and would pass a 2× regression.
func TestRatioIgnoresReferenceOnlyInterference(t *testing.T) {
	var ops, refs []float64
	for i := 0; i < chunks; i++ {
		op, ref := 5000.0, 1000.0
		if i%7 == 3 {
			op = 9000
		}
		if i%2 == 0 {
			ref = 3000
		}
		ops, refs = append(ops, op), append(refs, ref)
	}
	if got := Ratio(nil, nil).reduce(ops, refs); got != 5 {
		t.Fatalf("ratio = %.3g, want 5: interference on the reference moved it", got)
	}
	for i := range ops {
		ops[i] *= 2
	}
	if got := Ratio(nil, nil).reduce(ops, refs); got != 10 {
		t.Fatalf("ratio after a 2x regression = %.3g, want 10", got)
	}
}
