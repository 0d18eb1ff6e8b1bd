package obsplane

import (
	"fmt"
	"testing"

	"flexio/internal/flight"
	"flexio/internal/monitor"
)

// nopDisc is a discoverer for benchmarks that exercise merge cost only
// (the fleet state is pre-built, no scraping).
type nopDisc struct{}

func (nopDisc) List(string) (map[string]string, error) { return nil, nil }

// benchCollector pre-builds a collector holding nDaemons scraped
// states of eventsEach journal events (8 tenants round-robin) plus a
// populated report each — the shape one Snapshot must merge and stitch.
func benchCollector(nDaemons, eventsEach int) *Collector {
	c := New(nopDisc{}, Options{})
	for d := 0; d < nDaemons; d++ {
		name := fmt.Sprintf("d%02d", d)
		m := monitor.New(name)
		j := flight.NewJournal(eventsEach)
		for i := 0; i < eventsEach; i++ {
			ev := flight.Event{
				Kind:  flight.KindCompute,
				Point: "writer.flush",
				Scope: fmt.Sprintf("t%d/gts", i%8),
				Step:  int64(i / 8),
				T:     float64(i) * 1e-4,
				Dur:   1e-4,
			}
			j.Record(ev)
			m.Observe(ev.Point, ev.Dur)
		}
		st := &daemonState{key: DefaultPrefix + name, alive: true, hasReport: true, report: m.Snapshot()}
		st.ingestLocked(flight.Dump(j), c.opts.EventCap)
		c.daemons[st.key] = st
	}
	return c
}

// BenchmarkCollectorMerge measures one fleet snapshot — merging every
// daemon's report and stitching the accumulated events into the step
// table — over an 8-daemon, 16k-event fleet. This is the per-sweep
// steady-state cost of the collector, gated in CI by
// TestObsplaneMergeBudget against BENCH_obsplane.json.
func BenchmarkCollectorMerge(b *testing.B) {
	c := benchCollector(8, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := c.Snapshot()
		if len(snap.Steps) == 0 || len(snap.Report.Timings) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
