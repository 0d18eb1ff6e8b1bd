package evpath

import (
	"testing"

	"flexio/internal/flight"
)

// The wire transport adds two touches to every data send even when
// nobody is watching: the atomic stat counters and the (usually nil)
// journal check in record(). tcpStatsNop isolates that disabled-path
// cost over the bare loop tcpStatsBaseline, so TestGates can hold it to
// its bound like the recorder's no-sink stage.

var gateSink uint64

func tcpStatsBaseline(n int) {
	var acc uint64
	for i := 0; i < n; i++ {
		acc += uint64(i)
	}
	gateSink = acc
}

func tcpStatsNop() func(n int) {
	st := newTCPState(NewNet(nil))
	return func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			acc += uint64(i)
			st.bumpTX(128)
			st.record(flight.KindSend, "tcp.send", "bench", 128)
		}
		gateSink = acc
	}
}

func BenchmarkTCPStatsBaseline(b *testing.B) { tcpStatsBaseline(b.N) }

func BenchmarkTCPStatsNop(b *testing.B) {
	op := tcpStatsNop()
	b.ReportAllocs()
	b.ResetTimer()
	op(b.N)
}
