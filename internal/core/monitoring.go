package core

import (
	"encoding/json"

	"flexio/internal/evpath"
	"flexio/internal/monitor"
)

// Online performance monitoring (Section II.G): besides dumping traces
// for offline tuning, "monitoring data captured from the simulation side
// can be gathered online and transferred to the analytics side. The
// analytics process(es) can then use it to dynamically schedule data
// movement and decide the placement of DC Plug-ins." The writer group
// ships a snapshot of its monitor after every flushed step over the
// coordinator channel; the reader side keeps the latest report and offers
// a placement heuristic built on it.

const msgMonitorReport = "monitor-report"

// shipMonitorReport sends the writer-side monitor snapshot to the reader
// coordinator. Failures are ignored: monitoring is advisory and must
// never disturb the data path.
func (g *WriterGroup) shipMonitorReport(step int64) {
	if g.mon == nil {
		return
	}
	g.selMu.Lock()
	coord := g.coordConn
	g.selMu.Unlock()
	if coord == nil {
		return
	}
	payload, err := json.Marshal(g.mon.Snapshot())
	if err != nil {
		return
	}
	buf, err := evpath.EncodeEvent(&evpath.Event{
		Meta: evpath.Record{"kind": msgMonitorReport, "step": step},
		Data: payload,
	})
	if err != nil {
		return
	}
	coord.Send(buf) //nolint:errcheck // advisory traffic
}

// handleMonitorReport stores the latest writer-side report (coordPump).
func (g *ReaderGroup) handleMonitorReport(ev *evpath.Event) {
	var rep monitor.Report
	if err := json.Unmarshal(ev.Data, &rep); err != nil {
		return
	}
	step, _ := ev.Meta.GetInt("step")
	g.mu.Lock()
	g.writerReport = &rep
	g.writerReportStep = step
	g.cond.Broadcast()
	g.mu.Unlock()
}

// WriterReport returns the most recent monitoring report received from
// the simulation side and the step it covers; ok=false before the first
// report arrives.
func (g *ReaderGroup) WriterReport() (rep monitor.Report, step int64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.writerReport == nil {
		return monitor.Report{}, 0, false
	}
	return *g.writerReport, g.writerReportStep, true
}
