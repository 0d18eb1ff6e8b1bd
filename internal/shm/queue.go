// Package shm implements FlexIO's intra-node shared-memory transport
// (Section II.D of the paper): a single-producer single-consumer circular
// lock-free FIFO queue inspired by FastForward, a producer-owned buffer
// pool with a free list for large messages, and an XPMEM-style
// zero-intermediate-copy path for synchronous large transfers.
//
// On the real system these structures live in System V / mmap / XPMEM
// shared memory segments between OS processes; here producer and consumer
// are goroutines sharing the Go heap, which preserves every concurrency
// property (lock-freedom, cache-line isolation of producer and consumer
// state, full/empty flag signalling) while removing only the OS mapping
// syscalls.
//
// A blocked endpoint spins briefly on its slot, then parks: it announces
// itself in a parked flag, re-checks its slot, and sleeps on a wake
// channel until the peer's next publish (or Close) hands it a token. An
// idle endpoint therefore costs no CPU, which is what lets helper-core
// analytics share cores with the simulation (Section II.D).
package shm

import (
	"fmt"
	"sync/atomic"
)

// CacheLineSize is the assumed cache line size used for padding. 64 bytes
// matches the AMD Opteron processors of both Titan and Smoky.
const CacheLineSize = 64

const (
	slotEmpty uint32 = iota
	slotFull
)

// slot is one queue entry: a status flag plus a fixed-size payload. Each
// slot is padded so that two slots never share a cache line, avoiding the
// false sharing the paper calls out ("entries are carefully aligned and
// padded").
type slot struct {
	flag atomic.Uint32
	size uint32
	_pad [CacheLineSize - 8]byte // keep flag+size in their own line
	data []byte                  // payload storage, len == payloadSize
}

// Queue is a single-producer single-consumer circular lock-free FIFO.
// Exactly one goroutine may call Enqueue* and exactly one may call
// Dequeue*; this matches FlexIO's per-connection data queues. The
// producer's and consumer's ring positions live in different cache lines
// to reduce coherency traffic.
type Queue struct {
	slots       []slot
	mask        uint64
	payloadSize int

	_pad0 [CacheLineSize]byte
	head  uint64 // next slot to dequeue; owned by the consumer
	_pad1 [CacheLineSize]byte
	tail  uint64 // next slot to enqueue; owned by the producer
	_pad2 [CacheLineSize]byte

	closed atomic.Bool

	// Spin-then-park state, one set per side. A side that gives up
	// spinning sets its parked flag, re-checks its slot and sleeps on its
	// wake channel (capacity 1). The peer, after every publish, loads that
	// flag and, if set, swaps it off and sends one token without
	// blocking. Go's atomics are sequentially consistent, so of the
	// sleeper's flag-store→slot-load and the waker's slot-store→flag-load
	// at least one sees the other's store: no wakeup is lost. A stale
	// token only costs the sleeper one extra loop.
	consParked atomic.Bool
	prodParked atomic.Bool
	consWake   chan struct{}
	prodWake   chan struct{}

	// Wait accounting: one count per *blocking episode* (an Enqueue that
	// found the ring full, a Dequeue that found it empty), not per spin
	// iteration — the paper's backpressure signal, cheap enough to leave
	// on. Reported via WaitCounts and the channel's monitor gauges.
	enqWaits atomic.Int64
	deqWaits atomic.Int64
}

// NewQueue creates a queue with the given number of entries (rounded up to
// a power of two, minimum 2) and per-entry payload capacity in bytes.
func NewQueue(entries, payloadSize int) (*Queue, error) {
	if entries < 2 {
		entries = 2
	}
	if payloadSize <= 0 {
		return nil, fmt.Errorf("shm: payload size %d must be positive", payloadSize)
	}
	n := 1
	for n < entries {
		n <<= 1
	}
	q := &Queue{
		slots:       make([]slot, n),
		mask:        uint64(n - 1),
		payloadSize: payloadSize,
		consWake:    make(chan struct{}, 1),
		prodWake:    make(chan struct{}, 1),
	}
	// One backing allocation for all payloads, sliced per slot and padded
	// to cache-line multiples so payloads don't share lines either.
	stride := (payloadSize + CacheLineSize - 1) &^ (CacheLineSize - 1)
	backing := make([]byte, n*stride)
	for i := range q.slots {
		q.slots[i].data = backing[i*stride : i*stride+payloadSize]
	}
	return q, nil
}

// Capacity reports the number of entries in the ring.
func (q *Queue) Capacity() int { return len(q.slots) }

// PayloadSize reports the per-entry payload capacity.
func (q *Queue) PayloadSize() int { return q.payloadSize }

// TryEnqueue copies msg into the next slot if it is empty. It returns
// false when the queue is full or msg exceeds the payload size (callers
// must route oversized messages through the buffer pool instead). Only
// the producer goroutine may call it.
func (q *Queue) TryEnqueue(msg []byte) bool { return q.tryEnqueue(msg, nil) }

// tryEnqueue writes head⧺body into the next slot: framing a message
// straight into the slot saves the caller a staging copy.
func (q *Queue) tryEnqueue(head, body []byte) bool {
	if len(head)+len(body) > q.payloadSize {
		return false
	}
	s := &q.slots[q.tail&q.mask]
	if s.flag.Load() != slotEmpty {
		return false // consumer hasn't drained this slot yet
	}
	copy(s.data[copy(s.data, head):], body)
	s.size = uint32(len(head) + len(body))
	// The atomic store publishes size+payload to the consumer (release
	// semantics; Go atomics are sequentially consistent, which also
	// provides the memory fences the paper inserts on weakly ordered
	// machines).
	s.flag.Store(slotFull)
	q.tail++
	wake(&q.consParked, q.consWake)
	return true
}

// Enqueue blocks until the message is enqueued or the queue is closed: it
// spins briefly on a full ring, then parks until the consumer frees a
// slot. It reports false if closed first.
func (q *Queue) Enqueue(msg []byte) bool { return q.enqueue(msg, nil) }

func (q *Queue) enqueue(head, body []byte) bool {
	waited := false
	for spin := 0; ; spin++ {
		if q.closed.Load() {
			return false
		}
		if q.tryEnqueue(head, body) {
			return true
		}
		if !waited {
			waited = true
			q.enqWaits.Add(1)
		}
		if spin >= spinPolls {
			park(&q.prodParked, q.prodWake, func() bool {
				return q.closed.Load() || q.slots[q.tail&q.mask].flag.Load() == slotEmpty
			})
		}
	}
}

// TryDequeue copies the next message into dst and returns its length. It
// returns ok=false when the queue is empty. dst must be at least
// PayloadSize bytes to guarantee any message fits; shorter messages are
// fine in shorter buffers. Only the consumer goroutine may call it.
func (q *Queue) TryDequeue(dst []byte) (n int, ok bool) {
	s := &q.slots[q.head&q.mask]
	if s.flag.Load() != slotFull {
		return 0, false
	}
	n = int(s.size)
	if n > len(dst) {
		n = len(dst)
	}
	copy(dst[:n], s.data[:int(s.size)])
	s.flag.Store(slotEmpty) // release the entry back to the producer
	q.head++
	wake(&q.prodParked, q.prodWake)
	return n, true
}

// Dequeue blocks until a message arrives or the queue is closed and
// drained; it reports ok=false in the latter case. Like Enqueue it spins
// briefly, then parks until the producer publishes.
func (q *Queue) Dequeue(dst []byte) (int, bool) {
	waited := false
	for spin := 0; ; spin++ {
		if n, ok := q.TryDequeue(dst); ok {
			return n, true
		}
		if q.closed.Load() {
			// Re-check: producer may have enqueued before closing.
			if n, ok := q.TryDequeue(dst); ok {
				return n, true
			}
			return 0, false
		}
		if !waited {
			waited = true
			q.deqWaits.Add(1)
		}
		if spin >= spinPolls {
			park(&q.consParked, q.consWake, func() bool {
				return q.closed.Load() || q.slots[q.head&q.mask].flag.Load() == slotFull
			})
		}
	}
}

// Close marks the queue closed and wakes a parked side on both ends.
// Pending entries remain dequeueable; a blocked Dequeue returns ok=false
// once drained and a blocked Enqueue aborts. Close is safe to call from
// either side, any number of times: the wake channels are never closed,
// each only gets a token if it has room for one.
func (q *Queue) Close() {
	q.closed.Store(true)
	for _, ch := range [...]chan struct{}{q.consWake, q.prodWake} {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// WaitCounts reports how many blocking Enqueue calls found the ring full
// and how many blocking Dequeue calls found it empty.
func (q *Queue) WaitCounts() (enq, deq int64) {
	return q.enqWaits.Load(), q.deqWaits.Load()
}

// Len reports an instantaneous (racy, advisory) count of full entries.
func (q *Queue) Len() int {
	n := 0
	for i := range q.slots {
		if q.slots[i].flag.Load() == slotFull {
			n++
		}
	}
	return n
}

// spinPolls is how many times a blocked endpoint polls its slot before it
// parks. Polling is cheapest while the peer is mid-publish; past that,
// yielding instead of sleeping only takes the core from pack, unpack and
// the plug-in.
const spinPolls = 64

// park sleeps on wakeCh until a peer's publish or Close hands it a token.
// It announces itself in parked first and then re-checks ready, the
// condition it waits for, so a publish that raced with the announcement
// is never slept through.
func park(parked *atomic.Bool, wakeCh chan struct{}, ready func() bool) {
	parked.Store(true)
	if !ready() {
		<-wakeCh
	}
	// Clear the flag ourselves too: a token taken here may have come from
	// Close, or be stale, with the flag still set.
	parked.Store(false)
}

// wake hands one token to a parked peer. It costs one atomic load when
// the peer is not parked; the send never blocks, since a token already
// waiting wakes the peer just as well.
func wake(parked *atomic.Bool, wakeCh chan struct{}) {
	if parked.Load() && parked.Swap(false) {
		select {
		case wakeCh <- struct{}{}:
		default:
		}
	}
}
