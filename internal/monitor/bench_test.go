package monitor

import "testing"

// The Nop fast path: a nil *Monitor must cost ~nothing, so instrumented
// code can stay instrumented in production builds. The data path's
// per-stage recorder call is gated in internal/flight (TestGates); these
// measure the aggregate calls.

var sinkU uint64

// benchWork is the stand-in for "uninstrumented code": enough real work
// that the comparison is not 0ns-vs-0ns compiler folding.
func benchWork(i int) uint64 {
	return uint64(i)*2654435761 ^ sinkU
}

func BenchmarkBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkU = benchWork(i)
	}
}

func BenchmarkObserveNop(b *testing.B) {
	var m *Monitor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Observe("point", 1e-3)
		sinkU = benchWork(i)
	}
}

func BenchmarkObserve(b *testing.B) {
	m := New("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Observe("point", 1e-3)
	}
}
