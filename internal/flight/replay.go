package flight

import (
	"fmt"
	"math"
)

// Event-stream hashing and replay divergence detection.
//
// A deterministic recorder (the virtual-time coupled model: a
// single-threaded discrete-event loop) must produce the exact same event
// stream from the same configuration and seed. We fold every field of
// every event into an FNV-1a fingerprint; two runs diverge iff their
// fingerprints differ. Diff then localises the first differing event so
// the replay driver can report *where* determinism broke, not just that
// it did.

// streamHash is FNV-1a over a canonical little-endian encoding of the
// event stream. FNV is stdlib-free-of-ceremony, stable across platforms,
// and plenty for divergence detection (this is an integrity check, not
// an adversarial MAC).
type streamHash struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newStreamHash() *streamHash { return &streamHash{h: fnvOffset} }

func (s *streamHash) byte(b byte) {
	s.h ^= uint64(b)
	s.h *= fnvPrime
}

func (s *streamHash) u64(v uint64) {
	for i := 0; i < 8; i++ {
		s.byte(byte(v >> (8 * i)))
	}
}

func (s *streamHash) f64(v float64) {
	// Canonicalise the two zero bit patterns; NaN never reaches the
	// journal (Record scrubs it).
	if v == 0 {
		v = 0
	}
	s.u64(math.Float64bits(v))
}

func (s *streamHash) str(v string) {
	s.u64(uint64(len(v)))
	for i := 0; i < len(v); i++ {
		s.byte(v[i])
	}
}

func (s *streamHash) event(e *Event) {
	s.u64(uint64(e.ID))
	s.u64(uint64(e.Parent))
	s.byte(byte(e.Kind))
	s.str(e.Point)
	s.str(e.Channel)
	s.f64(e.T)
	s.f64(e.Dur)
	s.u64(uint64(int64(e.Rank)))
	s.u64(uint64(e.Step))
	s.u64(e.Epoch)
	s.u64(uint64(e.Bytes))
}

func (s *streamHash) sum() uint64 { return s.h }

// HashEvents fingerprints an event slice in order. HashEvents(nil) is
// the fingerprint of the empty stream (a fixed non-zero constant, so a
// forgotten journal cannot masquerade as a matching one by both hashing
// to zero).
func HashEvents(evs []Event) uint64 { return hashStream(uint64(len(evs)), evs) }

// hashStream fingerprints evs behind a leading count (the stream length
// for HashEvents, the total-seen cursor for a journal).
func hashStream(n uint64, evs []Event) uint64 {
	h := newStreamHash()
	h.u64(n)
	for i := range evs {
		h.event(&evs[i])
	}
	return h.sum()
}

// Divergence describes the first point at which two event streams
// disagree.
type Divergence struct {
	// Index is the position of the first mismatch (len of the shorter
	// stream when one is a strict prefix of the other).
	Index int
	// Field names the first differing event field ("len", "kind",
	// "point", "t", ...).
	Field string
	// A and B render the differing events (or "<missing>").
	A, B string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("replay divergence at event %d (field %s): run A %s, run B %s", d.Index, d.Field, d.A, d.B)
}

func eventString(e *Event) string {
	return fmt.Sprintf("{id=%d parent=%d %s %s ch=%q t=%.9f dur=%.9f rank=%d step=%d epoch=%d bytes=%d}",
		e.ID, e.Parent, e.Kind, e.Point, e.Channel, e.T, e.Dur, e.Rank, e.Step, e.Epoch, e.Bytes)
}

// Diff compares two event streams and reports the first divergence, or
// nil when the streams are identical.
func Diff(a, b []Event) *Divergence {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if f := eventFieldDiff(&a[i], &b[i]); f != "" {
			return &Divergence{Index: i, Field: f, A: eventString(&a[i]), B: eventString(&b[i])}
		}
	}
	if len(a) != len(b) {
		d := &Divergence{Index: n, Field: "len", A: "<missing>", B: "<missing>"}
		if n < len(a) {
			d.A = eventString(&a[n])
		}
		if n < len(b) {
			d.B = eventString(&b[n])
		}
		return d
	}
	return nil
}

func eventFieldDiff(a, b *Event) string {
	switch {
	case a.ID != b.ID:
		return "id"
	case a.Parent != b.Parent:
		return "parent"
	case a.Kind != b.Kind:
		return "kind"
	case a.Point != b.Point:
		return "point"
	case a.Channel != b.Channel:
		return "channel"
	case a.T != b.T:
		return "t"
	case a.Dur != b.Dur:
		return "dur"
	case a.Rank != b.Rank:
		return "rank"
	case a.Step != b.Step:
		return "step"
	case a.Epoch != b.Epoch:
		return "epoch"
	case a.Bytes != b.Bytes:
		return "bytes"
	}
	return ""
}
