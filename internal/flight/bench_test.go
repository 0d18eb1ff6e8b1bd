package flight

import "testing"

// The recorder-off fast path: a stage with no journal and no observer
// must cost ~nothing so data paths can stay instrumented in production
// builds. BenchmarkJournalNop vs. BenchmarkJournalBaseline is the
// comparison `make ci` gates on (nop_gate_test.go enforces the budget
// recorded in BENCH_flight.json).

var sinkU uint64

// benchWork is the stand-in for "uninstrumented code": enough real work
// that the comparison is not 0ns-vs-0ns compiler folding.
func benchWork(i int) uint64 {
	return uint64(i)*2654435761 ^ sinkU
}

func BenchmarkJournalBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkU = benchWork(i)
	}
}

// BenchmarkJournalNop is the exact call a core data-path stage makes with
// neither a journal nor a monitor attached (writer.pack's shape: scope,
// rank, step, epoch and parent filled in).
func BenchmarkJournalNop(b *testing.B) {
	var j *Journal // disabled recording
	var obs Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := j.Begin(obs, Event{
			Kind: KindCompute, Point: "writer.pack", Scope: "acme/gts",
			Rank: i & 3, Step: int64(i), Epoch: 1, Parent: EventID(i),
		})
		sinkU = benchWork(i)
		st.End()
	}
}

func BenchmarkJournalRecorded(b *testing.B) {
	j := NewJournal(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Record(Event{Kind: KindCompute, Point: "writer.pack", Step: int64(i), T: float64(i)})
		sinkU = benchWork(i)
	}
}
