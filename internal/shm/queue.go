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
package shm

import (
	"fmt"
	"runtime"
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
func (q *Queue) TryEnqueue(msg []byte) bool {
	if len(msg) > q.payloadSize {
		return false
	}
	s := &q.slots[q.tail&q.mask]
	if s.flag.Load() != slotEmpty {
		return false // consumer hasn't drained this slot yet
	}
	copy(s.data, msg)
	s.size = uint32(len(msg))
	// The atomic store publishes size+payload to the consumer (release
	// semantics; Go atomics are sequentially consistent, which also
	// provides the memory fences the paper inserts on weakly ordered
	// machines).
	s.flag.Store(slotFull)
	q.tail++
	return true
}

// Enqueue blocks (spinning with escalating yields) until the message is
// enqueued or the queue is closed. It reports false if closed first.
func (q *Queue) Enqueue(msg []byte) bool {
	waited := false
	for spin := 0; ; spin++ {
		if q.closed.Load() {
			return false
		}
		if q.TryEnqueue(msg) {
			return true
		}
		if !waited {
			waited = true
			q.enqWaits.Add(1)
		}
		backoff(spin)
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
	return n, true
}

// Dequeue blocks until a message arrives or the queue is closed and
// drained; it reports ok=false in the latter case.
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
		backoff(spin)
	}
}

// Close marks the queue closed. Pending entries remain dequeueable; a
// blocked Dequeue returns ok=false once drained and a blocked Enqueue
// aborts. Close is safe to call from either side, once.
func (q *Queue) Close() { q.closed.Store(true) }

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

// backoff spins briefly, then yields the processor. The polling consumer
// in the paper busy-waits on the flag; in Go we must eventually yield to
// the scheduler to avoid starving the peer on a loaded machine.
func backoff(spin int) {
	if spin < 64 {
		return // pure spin: cheapest when the peer is actively running
	}
	runtime.Gosched()
}
