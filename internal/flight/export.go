package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Export surfaces: the journal as JSON (the /journal endpoint and
// journal.json artifact), as Chrome trace events with flow arrows
// linking causal parents across ranks (/trace and trace.json; load in
// ui.perfetto.dev), and the critical-path analysis as JSON (/critpath,
// critpath.json) or a human-readable report (make trace).

// JournalDump is the JSON shape of an exported journal. The header
// carries the recording process's identity (Journal.SetIdentity), so a
// fleet collector merging dumps from many daemons can attribute every
// event stream to the process that produced it.
type JournalDump struct {
	Daemon  string  `json:"daemon,omitempty"`
	PID     int     `json:"pid,omitempty"`
	Node    string  `json:"node,omitempty"`
	Seen    int64   `json:"seen"`
	Dropped int64   `json:"dropped"`
	Hash    string  `json:"hash"` // hex fingerprint of the buffered stream
	Events  []Event `json:"events"`
}

// Dump snapshots a journal into its export shape under one lock, so
// Seen, Dropped, Hash and Events always describe the same window: the
// events cover cursor positions [Seen-len(Events), Seen). Nil journals
// dump as an empty stream.
func Dump(j *Journal) JournalDump {
	var d JournalDump
	if j != nil {
		j.mu.Lock()
		d = JournalDump{Daemon: j.daemon, PID: j.pid, Node: j.node, Seen: j.seen, Events: j.snapshotLocked()}
		j.mu.Unlock()
		d.Dropped = d.Seen - int64(len(d.Events))
	}
	d.Hash = fmt.Sprintf("%016x", hashStream(uint64(d.Seen), d.Events))
	return d
}

// WriteJSON writes the journal dump as indented JSON.
func WriteJSON(w io.Writer, j *Journal) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Dump(j))
}

// chromeEvent is one row of the Chrome trace-event format (the JSON
// Perfetto and about:tracing load).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
	Scope string         `json:"s,omitempty"`
}

// WriteChromeTrace renders events as Chrome trace events: one "X" slice
// per event with extent, one instant per mark, and "s"/"f" flow arrows
// from each causal parent to its child — which is what makes cross-rank
// causality visible in the viewer (arrows from a writer's send slice to
// the reader's assemble slice). Each MergeDumps lane becomes a process
// ("journal 0", "journal 1", ...) and each rank within it a thread, so a
// single journal's Snapshot renders as one process.
func WriteChromeTrace(w io.Writer, evs []Event) error {
	rows := make([]chromeEvent, 0, 2*len(evs)+1)
	named := make(map[int]bool)
	live := make(map[EventID]*Event, len(evs))
	for i := range evs {
		live[evs[i].ID] = &evs[i]
	}
	pidTid := func(rank int) (int, int) { return LaneOf(rank) + 1, rank % RankStride }
	for i := range evs {
		ev := &evs[i]
		pid, tid := pidTid(ev.Rank)
		if !named[pid] {
			named[pid] = true
			rows = append(rows, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": fmt.Sprintf("journal %d", pid-1)},
			})
		}
		args := map[string]any{
			"kind": ev.Kind.String(), "step": ev.Step, "id": uint64(ev.ID),
		}
		if ev.Epoch != 0 {
			args["epoch"] = ev.Epoch
		}
		if ev.Bytes != 0 {
			args["bytes"] = ev.Bytes
		}
		if ev.Channel != "" {
			args["channel"] = ev.Channel
		}
		if ev.Scope != "" {
			args["scope"] = ev.Scope
		}
		if ev.Parent != 0 {
			args["parent"] = uint64(ev.Parent)
		}
		ts := ev.T * 1e6
		if ev.Dur > 0 {
			rows = append(rows, chromeEvent{
				Name: ev.Point, Cat: ev.Kind.String(), Ph: "X",
				Ts: ts, Dur: ev.Dur * 1e6, Pid: pid, Tid: tid, Args: args,
			})
		} else {
			rows = append(rows, chromeEvent{
				Name: ev.Point, Cat: ev.Kind.String(), Ph: "i",
				Ts: ts, Pid: pid, Tid: tid, Scope: "t", Args: args,
			})
		}
		// Flow arrow from the parent's finish to this event's start;
		// only drawn when the parent is still buffered.
		if p := live[ev.Parent]; p != nil && ev.Parent != ev.ID {
			fid := fmt.Sprintf("flow%d", uint64(ev.ID))
			ppid, ptid := pidTid(p.Rank)
			rows = append(rows,
				chromeEvent{Name: "cause", Cat: "flow", Ph: "s", Ts: p.finish() * 1e6, Pid: ppid, Tid: ptid, ID: fid},
				chromeEvent{Name: "cause", Cat: "flow", Ph: "f", BP: "e", Ts: ts, Pid: pid, Tid: tid, ID: fid},
			)
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": rows, "displayTimeUnit": "ms"})
}

// WriteAnalysisJSON writes a critical-path analysis as indented JSON
// (the critpath.json artifact and the /critpath endpoint).
func WriteAnalysisJSON(w io.Writer, an Analysis) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(an)
}

// WriteReport renders a human-readable critical-path report: aggregate
// shares first, then each step's dominating chain.
func WriteReport(w io.Writer, an Analysis) error {
	if len(an.Steps) == 0 {
		_, err := fmt.Fprintln(w, "critical path: no step events recorded")
		return err
	}
	if _, err := fmt.Fprintf(w, "critical path over %d steps, %.6fs total (dominant: %s)\n",
		len(an.Steps), an.TotalLatency, an.Dominant); err != nil {
		return err
	}
	points := make([]string, 0, len(an.Shares))
	for pt := range an.Shares {
		points = append(points, pt)
	}
	sort.Slice(points, func(i, k int) bool {
		if an.Shares[points[i]] != an.Shares[points[k]] {
			return an.Shares[points[i]] > an.Shares[points[k]]
		}
		return points[i] < points[k]
	})
	for _, pt := range points {
		if _, err := fmt.Fprintf(w, "  %-24s %5.1f%%\n", pt, 100*an.Shares[pt]); err != nil {
			return err
		}
	}
	for i := range an.Steps {
		sp := &an.Steps[i]
		if _, err := fmt.Fprintf(w, "step %4d  latency %.6fs  dominant %s\n", sp.Step, sp.Latency, sp.Dominant); err != nil {
			return err
		}
		for _, e := range sp.Edges {
			if _, err := fmt.Fprintf(w, "    %-24s %-8s rank %-3d %.6fs (%4.1f%%)\n",
				e.Point, e.Kind, e.Rank, e.Dur, 100*e.Dur/sp.Latency); err != nil {
				return err
			}
		}
	}
	return nil
}
