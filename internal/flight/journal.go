// Package flight is FlexIO's causal flight recorder: a bounded,
// allocation-lean journal of every causally relevant runtime event —
// sends and receives, queue admissions, compute stages, blocks and wakes
// — tagged with {time, rank, step, epoch, channel, causal parent}. It is
// the system's only per-step trace record: the monitor keeps aggregates
// (histograms, counters, gauges), the journal keeps the timeline.
//
// Three consumers sit on top of the journal:
//
//   - critpath.go builds the happens-before graph of a step's events and
//     extracts the critical path, attributing the step's latency to its
//     dominating edge chain (e.g. writer.pack → rdma.put →
//     reader.assemble) so placement decisions can react to *where* time
//     goes, not just how much;
//   - replay.go hashes the event stream and diffs two journals, turning
//     the repo's virtual-time determinism claim into a tested invariant
//     (two identically-seeded runs must produce byte-identical streams);
//   - export.go renders the journal as JSON, as Chrome trace-event flow
//     arrows across ranks, and as a human-readable critical-path report.
//
// Timestamps come from the recorder: virtual-time simulations record
// modeled times directly (simnet.Engine satisfies Clock), wall-clock
// recorders use Begin/End on the journal's injected clock (wall clock by
// default, the one clock of the process). Replay
// hashing is meaningful only for deterministic (single-threaded
// discrete-event) recorders; multi-goroutine core streams use the
// journal for critical-path analysis and trace export, where ring order
// does not matter.
//
// A nil *Journal is a valid no-op recorder: every method is nil-safe and
// records nothing (benchmarked and CI-gated).
package flight

import (
	"math"
	"os"
	"sync"
	"time"
)

// Kind classifies a journal event in the causal model.
type Kind uint8

const (
	// KindCompute is a processing stage (pack, assemble, plug-in, sim
	// compute).
	KindCompute Kind = iota + 1
	// KindSend is data leaving a rank or stage (transport send, RDMA
	// put, flow injection).
	KindSend
	// KindRecv is data arriving (transport recv, RDMA get completion,
	// flow delivery).
	KindRecv
	// KindEnqueue is admission into a bounded queue or buffer pool.
	KindEnqueue
	// KindDequeue is removal from a queue or pool.
	KindDequeue
	// KindBlock is a rank parking (queue full, waiting on data).
	KindBlock
	// KindWake is a parked rank resuming.
	KindWake
	// KindMark is a zero-or-known-duration annotation (epoch bump,
	// reconfiguration seam).
	KindMark
)

func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindEnqueue:
		return "enqueue"
	case KindDequeue:
		return "dequeue"
	case KindBlock:
		return "block"
	case KindWake:
		return "wake"
	case KindMark:
		return "mark"
	}
	return "unknown"
}

// EventID names an event within one journal; IDs are assigned
// sequentially from 1, so for a deterministic recorder they are part of
// the replayable stream. 0 means "no event" (absent parent, nop journal).
type EventID uint64

// Event is one journal entry. Events are small value types; the journal
// stores them in a bounded ring without per-event allocation.
type Event struct {
	ID     EventID `json:"id"`
	Parent EventID `json:"parent,omitempty"` // causal parent (0 = root)
	Kind   Kind    `json:"kind"`
	// Point is the stage name, matching the monitor's measurement points
	// where both exist ("writer.pack", "send.rdma", "sim.compute", ...).
	Point string `json:"point"`
	// Channel names the resource the event crossed (a transport pair,
	// a fluid-flow resource set, a queue) for send/recv matching. The
	// data plane uses "w<M>>r<N>" on both the send and recv side of a
	// writer→reader transfer, so the pairing survives a cross-process
	// journal merge where event IDs are remapped.
	Channel string `json:"channel,omitempty"`
	// Scope is the tenant-qualified stream key the event belongs to
	// (directory.Qualify grammar). It partitions merged multi-tenant
	// journals before critical-path analysis — two tenants' step 3 must
	// never share a happens-before graph. Not part of the replay hash.
	Scope string  `json:"scope,omitempty"`
	T     float64 `json:"t"`             // seconds on the recorder's clock
	Dur   float64 `json:"dur,omitempty"` // stage duration (0 = instant)
	Rank  int     `json:"rank"`
	Step  int64   `json:"step"`
	Epoch uint64  `json:"epoch,omitempty"`
	Bytes int64   `json:"bytes,omitempty"`
}

// finish is the event's completion time.
func (e Event) finish() float64 { return e.T + e.Dur }

// Clock supplies timestamps in seconds; simnet.Engine satisfies it. Only
// differences and ordering are interpreted.
type Clock interface {
	Now() float64
}

// journalStart anchors the default wall clock so every journal in the
// process shares one time base (monotonic seconds since process start).
var journalStart = time.Now()

type wallClock struct{}

func (wallClock) Now() float64 { return time.Since(journalStart).Seconds() }

// DefaultCapacity bounds the journal ring when NewJournal is given a
// non-positive capacity. Sized so a full switched coupled run (hundreds
// of steps times a handful of events each) never wraps.
const DefaultCapacity = 1 << 16

// Journal is the bounded event recorder. All methods are safe for
// concurrent use and nil-safe; a nil *Journal is the disabled fast path.
type Journal struct {
	mu     sync.Mutex
	clock  Clock
	daemon string  // SetIdentity: owning daemon id
	node   string  // SetIdentity: host/node name
	pid    int     // SetIdentity: recording process id
	events []Event // ring, oldest at next once saturated
	cap    int
	next   int
	seen   int64
	nextID EventID
}

// NewJournal creates a journal bounded to capacity events (<= 0 selects
// DefaultCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{cap: capacity}
}

// SetClock injects the timestamp source used by Begin/End and Now; nil
// restores the wall clock. Virtual-time recorders either inject their
// simnet engine or pass explicit times to Record.
func (j *Journal) SetClock(c Clock) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.clock = c
	j.mu.Unlock()
}

// SetIdentity stamps the journal with the recording process's identity
// (daemon id and node name; the pid is taken from the process). The
// identity travels on every Dump header, so merged cross-process
// journals stay attributable. Nil-safe; an empty node falls back to the
// host name.
func (j *Journal) SetIdentity(daemon, node string) {
	if j == nil {
		return
	}
	if node == "" {
		node, _ = os.Hostname() //nolint:errcheck // "" is an acceptable fallback
	}
	j.mu.Lock()
	j.daemon = daemon
	if node != "" {
		j.node = node
	}
	j.pid = os.Getpid()
	j.mu.Unlock()
}

// Now reads the journal's clock (wall clock when unset). Returns 0 on a
// nil journal.
func (j *Journal) Now() float64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nowLocked()
}

// Record appends an event with the caller's timestamps (the virtual-time
// path: modeled times are passed in, not measured). The ID field is
// assigned; the assigned ID is returned for parent links. A nil journal
// records nothing and returns 0.
func (j *Journal) Record(ev Event) EventID {
	if j == nil {
		return 0
	}
	if math.IsNaN(ev.T) {
		ev.T = 0
	}
	j.mu.Lock()
	j.nextID++
	ev.ID = j.nextID
	j.appendLocked(ev)
	j.mu.Unlock()
	return ev.ID
}

// Observer folds a finished event's duration into an aggregate of its
// point; *monitor.Monitor satisfies it.
type Observer interface {
	Observe(point string, seconds float64)
}

// Stage is one event between Begin and End. The zero Stage — no journal,
// no observer — is inert: End costs one branch.
type Stage struct {
	j   *Journal
	obs Observer
	ev  Event
}

// Begin opens ev: it stamps T on the journal's clock and assigns the ID,
// so children can link to the event while it is still open, but the
// event enters the ring only when End completes it — a scraper windowing
// by Seen never ingests a half-open event. obs, when non-nil, receives
// the event's duration at End. This is the one recorder call of the live
// data plane: with a journal it journals, with an observer it feeds the
// observer's histogram, with both it does both on one clock. With
// neither it returns the zero Stage without reading any clock. On a nil
// journal the wall clock times the stage and no ID is assigned.
func (j *Journal) Begin(obs Observer, ev Event) Stage {
	if j == nil && obs == nil {
		return Stage{}
	}
	return j.begin(obs, ev)
}

// begin is Begin past the no-sink check, kept out of line so Begin
// inlines into every call site.
func (j *Journal) begin(obs Observer, ev Event) Stage {
	if j == nil {
		ev.T = wallClock{}.Now()
		return Stage{obs: obs, ev: ev}
	}
	j.mu.Lock()
	ev.T = j.nowLocked()
	j.nextID++
	ev.ID = j.nextID
	j.mu.Unlock()
	return Stage{j: j, obs: obs, ev: ev}
}

// ID is the open event's ID for parent links (0 without a journal).
func (s Stage) ID() EventID { return s.ev.ID }

// End completes the event — its duration becomes now - T — appends it to
// the journal and hands the duration to the observer.
func (s *Stage) End() {
	if s.j != nil || s.obs != nil {
		s.end()
	}
}

// end is End past the no-sink check, kept out of line so End inlines.
func (s *Stage) end() {
	switch {
	case s.j != nil:
		s.j.mu.Lock()
		if d := s.j.nowLocked() - s.ev.T; d > 0 {
			s.ev.Dur = d
		}
		s.j.appendLocked(s.ev)
		s.j.mu.Unlock()
	default:
		if d := (wallClock{}).Now() - s.ev.T; d > 0 {
			s.ev.Dur = d
		}
	}
	if s.obs != nil {
		s.obs.Observe(s.ev.Point, s.ev.Dur)
	}
}

// nowLocked reads the injected clock (wall clock when unset). Caller
// holds j.mu.
func (j *Journal) nowLocked() float64 {
	if j.clock == nil {
		return wallClock{}.Now()
	}
	return j.clock.Now()
}

// appendLocked pushes into the bounded ring. Caller holds j.mu.
func (j *Journal) appendLocked(ev Event) {
	if len(j.events) < j.cap {
		j.events = append(j.events, ev)
	} else {
		j.events[j.next] = ev
		j.next = (j.next + 1) % j.cap
	}
	j.seen++
}

// Snapshot copies the ring out oldest-first. Nil journals snapshot
// empty.
func (j *Journal) Snapshot() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// snapshotLocked copies the ring out oldest-first (nil when empty).
// Caller holds j.mu.
func (j *Journal) snapshotLocked() []Event {
	if len(j.events) == 0 {
		return nil
	}
	out := make([]Event, 0, len(j.events))
	out = append(out, j.events[j.next:]...)
	return append(out, j.events[:j.next]...)
}

// Seen reports the total number of events ever recorded.
func (j *Journal) Seen() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seen
}

// Reset clears the journal (events, counters and ID sequence), keeping
// capacity and clock.
func (j *Journal) Reset() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.events = j.events[:0]
	j.next = 0
	j.seen = 0
	j.nextID = 0
	j.mu.Unlock()
}

// Hash folds the journal's buffered event stream (plus the total-seen
// count, so a wrapped ring cannot collide with an unwrapped one) into
// the replay fingerprint. See HashEvents.
func (j *Journal) Hash() uint64 {
	if j == nil {
		return HashEvents(nil)
	}
	j.mu.Lock()
	seen, evs := j.seen, j.snapshotLocked()
	j.mu.Unlock()
	return hashStream(uint64(seen), evs)
}
