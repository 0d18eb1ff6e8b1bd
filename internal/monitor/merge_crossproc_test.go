package monitor

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// Cross-process merge coverage: the fleet collector merges reports that
// crossed a JSON wire boundary, so these tests round-trip every input
// through the export encoding before merging — exercising the
// empty-stat ±Inf guards and the sparse histogram form under exactly
// the conditions /fleet/metrics sees.

// roundTrip pushes a report through its JSON wire form, as a collector
// scraping /report would receive it.
func roundTrip(t *testing.T, r Report) Report {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var out Report
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return out
}

// TestMergeCrossProcessDisjointStatSets merges two wire-round-tripped
// reports whose timing points do not overlap at all: both sets must
// survive intact, and a point present in only one process must keep its
// exact count/extrema (no contamination from the other report's maps).
func TestMergeCrossProcessDisjointStatSets(t *testing.T) {
	a := New("writerd")
	a.SetIdentity("writerd", "node-a")
	a.Observe("writer.pack", 0.010)
	a.Observe("writer.pack", 0.020)
	a.AddVolume("data.bytes.sent", 4096)

	b := New("readerd")
	b.SetIdentity("readerd", "node-b")
	b.Observe("reader.assemble", 0.040)
	b.Incr("data.msgs.recv", 7)

	merged := Merge("fleet", roundTrip(t, a.Snapshot()), roundTrip(t, b.Snapshot()))
	if len(merged.Timings) != 2 {
		t.Fatalf("merged %d timing points, want 2 disjoint", len(merged.Timings))
	}
	pack := merged.Timings["writer.pack"]
	if pack.Count != 2 || pack.Min != 0.010 || pack.Max != 0.020 {
		t.Fatalf("writer.pack contaminated: count=%d min=%v max=%v", pack.Count, pack.Min, pack.Max)
	}
	asm := merged.Timings["reader.assemble"]
	if asm.Count != 1 || asm.Min != 0.040 || asm.Max != 0.040 {
		t.Fatalf("reader.assemble contaminated: count=%d min=%v max=%v", asm.Count, asm.Min, asm.Max)
	}
	if merged.Volumes["data.bytes.sent"] != 4096 || merged.Counts["data.msgs.recv"] != 7 {
		t.Fatalf("volumes/counts lost: %v %v", merged.Volumes, merged.Counts)
	}
	if len(merged.Origins) != 2 {
		t.Fatalf("origins = %v, want both processes attributed", merged.Origins)
	}
}

// TestMergeCrossProcessEmptyReports merges empty and declared-but-empty
// reports (both wire-round-tripped) into a populated one: the empty
// inputs must not perturb extrema — the round-trip restores the
// internal Min=+Inf/Max=-Inf invariant, so a later observation on the
// merged stat still compares correctly — and must not ship ±Inf.
func TestMergeCrossProcessEmptyReports(t *testing.T) {
	empty := roundTrip(t, New("idle").Snapshot())

	decl := New("declared")
	decl.Declare("writer.flush")
	declared := roundTrip(t, decl.Snapshot())
	ds := declared.Timings["writer.flush"]
	if !math.IsInf(ds.Min, 1) || !math.IsInf(ds.Max, -1) {
		t.Fatalf("round-trip lost the empty-stat invariant: min=%v max=%v", ds.Min, ds.Max)
	}

	busy := New("busy")
	busy.Observe("writer.flush", 0.005)

	merged := Merge("fleet", empty, declared, roundTrip(t, busy.Snapshot()))
	st := merged.Timings["writer.flush"]
	if st.Count != 1 || st.Min != 0.005 || st.Max != 0.005 {
		t.Fatalf("empty inputs perturbed the merge: count=%d min=%v max=%v", st.Count, st.Min, st.Max)
	}
	// Merging only empties must stay empty and still serialize safely.
	onlyEmpty := Merge("fleet", empty, declared)
	var buf bytes.Buffer
	if err := onlyEmpty.WriteJSON(&buf); err != nil {
		t.Fatalf("empty merge does not serialize: %v", err)
	}
	if bytes.Contains(buf.Bytes(), []byte("Inf")) {
		t.Fatal("empty merge leaked ±Inf into JSON")
	}
}

// TestMergeInfPinnedBuckets merges stats from two processes that each
// observed a duration beyond the histogram's resolved range (a hung
// stage): such observations pin to the final bucket, whose upper bound
// is +Inf. The pinned counts must sum across processes, quantiles must
// stay finite (clamped to the Max envelope), and the wire round-trip
// must preserve the pinned counts exactly.
func TestMergeInfPinnedBuckets(t *testing.T) {
	const hung = 1e10 // seconds; > 2^31s, lands in the +Inf-bounded bucket 63
	mk := func(name string) Report {
		m := New(name)
		m.Observe("send.tcp", 0.001)
		m.Observe("send.tcp", hung)
		return m.Snapshot()
	}
	merged := Merge("fleet", roundTrip(t, mk("p1")), roundTrip(t, mk("p2")))
	st := merged.Timings["send.tcp"]
	if st.Count != 4 {
		t.Fatalf("count = %d, want 4", st.Count)
	}
	if got := st.Hist[HistBuckets-1]; got != 2 {
		t.Fatalf("+Inf-pinned bucket = %d across processes, want 2", got)
	}
	if st.Max != hung {
		t.Fatalf("merged Max = %v, want %v preserved", st.Max, hung)
	}
	// P99 targets the pinned bucket; the estimate is the bucket's finite
	// geometric midpoint clamped to [Min, Max] — never NaN or ±Inf.
	if p := st.P99(); math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
		t.Fatalf("P99 over a pinned bucket = %v", p)
	}
	// A second-level merge (fleet of fleets) must keep summing buckets.
	again := Merge("global", merged, merged)
	if got := again.Timings["send.tcp"].Hist[HistBuckets-1]; got != 4 {
		t.Fatalf("re-merged pinned bucket = %d, want 4", got)
	}
}

// TestMergeIdentity: identity fields travel per process and merge into
// Origins, and a merge of merges carries them through.
func TestMergeIdentity(t *testing.T) {
	a := New("wd0")
	a.SetIdentity("wd0", "host-a")
	a.Observe("writer.flush", 0.001)
	b := New("rd0")
	b.SetIdentity("rd0", "host-b")
	b.Observe("reader.assemble", 0.002)

	ra, rb := roundTrip(t, a.Snapshot()), roundTrip(t, b.Snapshot())
	if ra.Daemon != "wd0" || ra.Node != "host-a" || ra.PID == 0 {
		t.Fatalf("identity lost on the wire: %+v", ra)
	}
	merged := Merge("fleet", ra, rb)
	if len(merged.Origins) != 2 || merged.Origins[0] == merged.Origins[1] {
		t.Fatalf("origins = %v, want two distinct process identities", merged.Origins)
	}
	// Merging a merge must carry origins through, not re-derive them.
	again := Merge("global", merged)
	if len(again.Origins) != 2 {
		t.Fatalf("second-level origins = %v", again.Origins)
	}
}
