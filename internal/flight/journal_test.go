package flight

import (
	"strings"
	"testing"
)

type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	if id := j.Record(Event{Kind: KindSend, Point: "x"}); id != 0 {
		t.Fatalf("nil Record returned %d, want 0", id)
	}
	st := j.Begin(nil, Event{Kind: KindCompute})
	if st != (Stage{}) {
		t.Fatalf("nil Begin without observer = %+v, want the inert Stage", st)
	}
	st.End()
	j.SetClock(nil)
	j.Reset()
	if j.Snapshot() != nil || j.Seen() != 0 || Dump(j).Dropped != 0 {
		t.Fatal("nil journal should report empty state")
	}
	if j.Hash() != HashEvents(nil) {
		t.Fatal("nil journal hash should equal empty-stream hash")
	}
}

func TestRecordAssignsSequentialIDs(t *testing.T) {
	j := NewJournal(16)
	a := j.Record(Event{Kind: KindCompute, Point: "a", T: 1})
	b := j.Record(Event{Kind: KindSend, Point: "b", T: 2, Parent: a})
	if a != 1 || b != 2 {
		t.Fatalf("ids = %d,%d, want 1,2", a, b)
	}
	evs := j.Snapshot()
	if len(evs) != 2 || evs[0].ID != 1 || evs[1].Parent != a {
		t.Fatalf("snapshot = %+v", evs)
	}
}

func TestRingBoundOverwritesOldest(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(Event{Kind: KindCompute, Point: "p", T: float64(i)})
	}
	if n := len(j.Snapshot()); n != 4 {
		t.Fatalf("buffered = %d, want 4", n)
	}
	if d := Dump(j); d.Seen != 10 || d.Dropped != 6 {
		t.Fatalf("Seen/Dropped = %d/%d, want 10/6", d.Seen, d.Dropped)
	}
	evs := j.Snapshot()
	for i, ev := range evs {
		if want := float64(6 + i); ev.T != want {
			t.Fatalf("evs[%d].T = %v, want %v (oldest-first)", i, ev.T, want)
		}
	}
}

func TestBeginEndUsesInjectedClock(t *testing.T) {
	clk := &fakeClock{t: 10}
	j := NewJournal(8)
	j.SetClock(clk)
	obs := &pointSums{}
	st := j.Begin(obs, Event{Kind: KindCompute, Point: "work", Rank: 2})
	if n := len(j.Snapshot()); st.ID() != 1 || n != 0 {
		t.Fatalf("Begin: id %d, %d buffered; want id 1 and nothing in the ring yet", st.ID(), n)
	}
	clk.t = 12.5
	st.End()
	evs := j.Snapshot()
	if len(evs) != 1 || evs[0].T != 10 || evs[0].Dur != 2.5 {
		t.Fatalf("span = %+v, want T=10 Dur=2.5", evs)
	}
	// The observer saw the same duration the journal recorded.
	if obs.sum["work"] != 2.5 || obs.n != 1 {
		t.Fatalf("observer got %v over %d calls, want work=2.5 once", obs.sum, obs.n)
	}

	// Observer without a journal: timed on the wall clock, nothing
	// journaled, no ID.
	var nilJ *Journal
	wall := &pointSums{}
	st = nilJ.Begin(wall, Event{Point: "wall"})
	st.End()
	if st.ID() != 0 || wall.n != 1 || wall.sum["wall"] < 0 || wall.sum["wall"] > 1 {
		t.Fatalf("observer-only stage: id %d, %d observations %v", st.ID(), wall.n, wall.sum)
	}
}

// pointSums is a test Observer summing durations per point.
type pointSums struct {
	sum map[string]float64
	n   int
}

func (p *pointSums) Observe(point string, seconds float64) {
	if p.sum == nil {
		p.sum = map[string]float64{}
	}
	p.sum[point] += seconds
	p.n++
}

// TestEndAfterWrapFindsLiveEvents: an event opened before the ring wraps
// still lands complete when it ends — the open event travels with its
// caller, not in the ring — and events enter the ring in end order, so a
// child that ends first is buffered before its still-open parent.
func TestEndAfterWrapFindsLiveEvents(t *testing.T) {
	clk := &fakeClock{t: 0}
	j := NewJournal(3)
	j.SetClock(clk)
	parent := j.Begin(nil, Event{Point: "flush"})
	for i := 1; i <= 5; i++ {
		clk.t = float64(i)
		child := j.Begin(nil, Event{Point: "child", Parent: parent.ID()})
		child.End()
	}
	clk.t = 100
	parent.End()
	evs := j.Snapshot()
	if d := Dump(j); len(evs) != 3 || d.Seen != 6 || d.Dropped != 3 {
		t.Fatalf("Len/Seen/Dropped = %d/%d/%d, want 3/6/3", len(evs), d.Seen, d.Dropped)
	}
	last := evs[2]
	if last.ID != parent.ID() || last.Dur != 100 || last.Point != "flush" {
		t.Fatalf("parent entered as %+v, want id %d Dur 100 at the newest slot", last, parent.ID())
	}
	for _, ev := range evs[:2] {
		if ev.Parent != parent.ID() || ev.ID <= parent.ID() {
			t.Fatalf("child %+v does not link to the parent opened before it", ev)
		}
	}
}

func TestHashDetectsAnyFieldChange(t *testing.T) {
	base := []Event{
		{ID: 1, Kind: KindSend, Point: "send.rdma", Channel: "w0>r1", T: 1, Dur: 0.5, Rank: 0, Step: 3, Epoch: 1, Bytes: 4096},
		{ID: 2, Parent: 1, Kind: KindRecv, Point: "recv", Channel: "w0>r1", T: 1.5, Rank: 1, Step: 3, Epoch: 1},
	}
	h0 := HashEvents(base)
	if h0 == HashEvents(nil) {
		t.Fatal("non-empty stream hashed as empty")
	}
	mutations := []func(e *Event){
		func(e *Event) { e.ID++ },
		func(e *Event) { e.Parent++ },
		func(e *Event) { e.Kind = KindCompute },
		func(e *Event) { e.Point += "x" },
		func(e *Event) { e.Channel = "other" },
		func(e *Event) { e.T += 1e-9 },
		func(e *Event) { e.Dur += 1e-9 },
		func(e *Event) { e.Rank++ },
		func(e *Event) { e.Step++ },
		func(e *Event) { e.Epoch++ },
		func(e *Event) { e.Bytes++ },
	}
	for i, mut := range mutations {
		evs := append([]Event(nil), base...)
		mut(&evs[0])
		if HashEvents(evs) == h0 {
			t.Fatalf("mutation %d did not change the hash", i)
		}
	}
	// And journal hashing matches when rebuilt identically.
	j1, j2 := NewJournal(8), NewJournal(8)
	for _, ev := range base {
		e := ev
		e.ID = 0
		j1.Record(e)
		j2.Record(e)
	}
	if j1.Hash() != j2.Hash() {
		t.Fatal("identical journals hash differently")
	}
}

func TestDiffLocatesFirstMismatch(t *testing.T) {
	a := []Event{
		{ID: 1, Kind: KindCompute, Point: "sim.compute", T: 0, Dur: 1},
		{ID: 2, Kind: KindSend, Point: "sim.io", T: 1, Dur: 0.5},
	}
	b := append([]Event(nil), a...)
	if d := Diff(a, b); d != nil {
		t.Fatalf("identical streams diverged: %v", d)
	}
	b[1].Dur = 0.75
	d := Diff(a, b)
	if d == nil || d.Index != 1 || d.Field != "dur" {
		t.Fatalf("Diff = %+v, want index 1 field dur", d)
	}
	if !strings.Contains(d.Error(), "event 1") {
		t.Fatalf("Error() = %q", d.Error())
	}
	// Prefix divergence.
	d = Diff(a, a[:1])
	if d == nil || d.Field != "len" || d.Index != 1 {
		t.Fatalf("prefix Diff = %+v", d)
	}
}

func TestResetClearsStream(t *testing.T) {
	j := NewJournal(8)
	j.Record(Event{Kind: KindCompute, Point: "a", T: 1})
	j.Reset()
	if j.Snapshot() != nil || j.Seen() != 0 {
		t.Fatal("Reset did not clear")
	}
	if id := j.Record(Event{Kind: KindCompute, Point: "a", T: 1}); id != 1 {
		t.Fatalf("post-Reset id = %d, want 1 (sequence restarts)", id)
	}
}
