package shm

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"

	"flexio/internal/flight"
)

// Message kinds carried in the control queue.
const (
	msgInline byte = 1 // payload lives in the queue slot itself
	msgPooled byte = 2 // payload lives in a pool buffer; async, two copies
	msgHandle byte = 4 // header inline, payload passed by reference; async, zero payload copies
)

const ctlHeader = 1 + 8 // kind + buffer id or inline length

// Errors returned by the handle-passing send path.
var (
	// ErrHandleTooLarge means the header exceeds the inline budget; the
	// caller should fall back to a copying send.
	ErrHandleTooLarge = errors.New("shm: handle header exceeds inline budget")
	// ErrClosed means the channel was closed before the message could be
	// enqueued.
	ErrClosed = errors.New("shm: channel closed")
)

// ChannelStats counts transport activity for the performance monitor.
// CopiedBytes counts every payload byte memcpy'd through channel-owned
// memory (inline and pooled messages copy on both ends, handle messages
// only their headers) — the quantity the zero-copy path is meant to
// collapse.
type ChannelStats struct {
	MessagesSent int64
	BytesSent    int64
	InlineSends  int64
	PooledSends  int64
	HandleSends  int64
	CopiedBytes  int64
}

// Channel is a one-directional intra-node transport between one producer
// and one consumer, combining the paper's three mechanisms: small messages
// travel inline through the FastForward data queue; large asynchronous
// messages go through the producer's shared buffer pool (two copies); and
// the XPMEM-style path hands the consumer the producer's own buffer
// (SendHandle: header inline, payload by reference, no payload copy).
type Channel struct {
	q    *Queue
	pool *BufferPool

	inlineMax int
	rxFrame   []byte // consumer-owned: each receive dequeues its frame here

	mu          sync.Mutex
	outstanding map[uint64]*outEntry
	nextID      uint64

	journal atomic.Pointer[flight.Journal] // attached via SetJournal

	// Stats counters, grouped by the side that writes them, each group in
	// cache lines of its own so that neither end's bumps bounce a line the
	// other end writes. CopiedBytes is txCopied + rxCopied.
	_pad0                                 [CacheLineSize]byte
	messagesSent, bytesSent               atomic.Int64 // producer
	inlineSends, pooledSends, handleSends atomic.Int64
	txCopied                              atomic.Int64
	_pad1                                 [CacheLineSize]byte
	rxCopied                              atomic.Int64 // consumer
	_pad2                                 [CacheLineSize]byte
}

type outEntry struct {
	buf       []byte
	onRelease func()    // non-nil for handle sends: returns the buffer to its owner
	once      sync.Once // guards the release (Recv, RecvMsg and Close may race)
}

// release hands the buffer back to its producer exactly once by running
// the handle-send release callback.
func (e *outEntry) release() {
	e.once.Do(func() {
		if e.onRelease != nil {
			e.onRelease()
		}
	})
}

// NewChannel creates a channel with `entries` control-queue slots,
// messages up to inlineMax bytes sent inline, and a buffer pool bounded to
// poolMax bytes (0 = unbounded).
func NewChannel(entries, inlineMax int, poolMax int64) (*Channel, error) {
	if inlineMax < 64 {
		inlineMax = 64
	}
	q, err := NewQueue(entries, ctlHeader+inlineMax)
	if err != nil {
		return nil, err
	}
	return &Channel{
		q:           q,
		pool:        NewBufferPool(poolMax),
		inlineMax:   inlineMax,
		rxFrame:     make([]byte, q.PayloadSize()),
		outstanding: make(map[uint64]*outEntry),
	}, nil
}

// Pool exposes the channel's buffer pool (for stats and tests).
func (c *Channel) Pool() *BufferPool { return c.pool }

// Send delivers msg to the consumer asynchronously. Small messages are
// copied inline into the queue slot; large ones are copied into a pool
// buffer, with only a control message in the queue ("two memory copies
// ... for sending large messages asynchronously"). It returns false if
// the channel is closed.
func (c *Channel) Send(msg []byte) bool {
	c.countSend(len(msg))
	if len(msg) <= c.inlineMax {
		var ctl [ctlHeader]byte
		ctl[0] = msgInline
		binary.LittleEndian.PutUint64(ctl[1:], uint64(len(msg)))
		c.inlineSends.Add(1)
		c.txCopied.Add(int64(len(msg)))
		ok := c.q.enqueue(ctl[:], msg)
		if ok {
			c.recordQueueEvent(flight.KindEnqueue, "shm.send.inline", len(msg))
		}
		return ok
	}
	buf, err := c.pool.Get(len(msg))
	if err != nil {
		return false
	}
	copy(buf, msg) // first copy
	id := c.register(&outEntry{buf: buf})
	var frame [ctlHeader]byte
	frame[0] = msgPooled
	binary.LittleEndian.PutUint64(frame[1:], id)
	c.pooledSends.Add(1)
	c.txCopied.Add(int64(len(msg)))
	if !c.q.Enqueue(frame[:]) {
		c.unregister(id)
		c.pool.Put(buf)
		return false
	}
	c.recordQueueEvent(flight.KindEnqueue, "shm.send.pooled", len(msg))
	return true
}

// SendHandle delivers a small header inline and the payload by reference:
// no payload byte is copied by the channel on either end. Ownership of
// payload transfers to the channel until the consumer (or Close) invokes
// the release path, at which point onRelease — typically "return the
// buffer to the producer's pool" — runs exactly once. The consumer
// receives the payload via RecvMsg and must call Release when done; a
// consumer using plain Recv gets header⧺payload as one copied message and
// the buffer is released immediately. On error the channel has taken no
// ownership: onRelease does not run and the caller keeps the payload.
func (c *Channel) SendHandle(hdr, payload []byte, onRelease func()) error {
	if len(hdr) > c.inlineMax {
		return ErrHandleTooLarge
	}
	c.countSend(len(hdr) + len(payload))
	id := c.register(&outEntry{buf: payload, onRelease: onRelease})
	var ctl [ctlHeader]byte
	ctl[0] = msgHandle
	binary.LittleEndian.PutUint64(ctl[1:], id)
	c.handleSends.Add(1)
	c.txCopied.Add(int64(len(hdr)))
	if !c.q.enqueue(ctl[:], hdr) {
		c.unregister(id)
		return ErrClosed
	}
	c.recordQueueEvent(flight.KindEnqueue, "shm.send.handle", len(hdr))
	return nil
}

// Received is one message delivered by RecvMsg. For handle messages,
// Payload references the producer's buffer and Release must be called
// (exactly once, from any goroutine) when the consumer is done with it;
// for all other kinds Payload is nil and Release may be nil. Msg never
// aliases producer memory.
type Received struct {
	Msg     []byte
	Payload []byte
	Release func()
}

// Recv returns the next message, reusing dst's storage when large enough.
// ok=false means the channel is closed and drained. Handle messages are
// flattened to header⧺payload (both copied) and released immediately, so
// a copying consumer interoperates with a handle-passing producer.
func (c *Channel) Recv(dst []byte) (msg []byte, ok bool) {
	r, ok := c.recvMsg(dst, false)
	return r.Msg, ok
}

// RecvMsg returns the next message without flattening handle payloads:
// the zero-copy receive path. dst is reused for Msg storage when large
// enough.
func (c *Channel) RecvMsg(dst []byte) (Received, bool) {
	return c.recvMsg(dst, true)
}

func (c *Channel) recvMsg(dst []byte, byRef bool) (Received, bool) {
	frame := c.rxFrame
	n, ok := c.q.Dequeue(frame)
	if !ok {
		return Received{}, false
	}
	kind := frame[0]
	switch kind {
	case msgInline:
		ln := int(binary.LittleEndian.Uint64(frame[1:]))
		if ln > n-ctlHeader {
			ln = n - ctlHeader
		}
		dst = grow(dst, ln)
		copy(dst, frame[ctlHeader:ctlHeader+ln])
		c.rxCopied.Add(int64(ln))
		c.recordQueueEvent(flight.KindDequeue, "shm.recv", ln)
		return Received{Msg: dst}, true
	case msgPooled:
		id := binary.LittleEndian.Uint64(frame[1:])
		e := c.take(id)
		if e == nil {
			return Received{}, false
		}
		dst = grow(dst, len(e.buf))
		copy(dst, e.buf) // second copy
		c.pool.Put(e.buf)
		c.rxCopied.Add(int64(len(dst)))
		c.recordQueueEvent(flight.KindDequeue, "shm.recv", len(dst))
		return Received{Msg: dst}, true
	case msgHandle:
		id := binary.LittleEndian.Uint64(frame[1:])
		e := c.take(id)
		if e == nil {
			return Received{}, false
		}
		hdr := frame[ctlHeader:n]
		c.rxCopied.Add(int64(len(hdr)))
		if byRef {
			// Msg gets its own copy: the frame is reused by the next receive.
			dst = grow(dst, len(hdr))
			copy(dst, hdr)
			c.recordQueueEvent(flight.KindDequeue, "shm.recv.handle", len(e.buf))
			return Received{Msg: dst, Payload: e.buf, Release: e.release}, true
		}
		// Copying consumer: flatten to one contiguous message and release
		// the producer's buffer right away.
		dst = grow(dst, len(hdr)+len(e.buf))
		copy(dst, hdr)
		copy(dst[len(hdr):], e.buf)
		e.release()
		c.rxCopied.Add(int64(len(e.buf)))
		c.recordQueueEvent(flight.KindDequeue, "shm.recv", len(dst))
		return Received{Msg: dst}, true
	}
	return Received{}, false
}

// Close shuts down the channel. Blocked senders and receivers return
// false once the queue drains; messages already enqueued (inline or
// pooled) remain receivable. Outstanding handle payloads run their
// onRelease so producer buffers are never stranded; entries stay takeable
// for a receiver that drains the queue afterwards.
func (c *Channel) Close() {
	c.q.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.outstanding {
		e.release()
	}
}

// Stats returns a snapshot of channel counters. A send is counted before
// it is published, so every message the consumer has received is in the
// producer's counts; a send refused by a closed channel stays counted.
// Each field is loaded on its own, so a snapshot taken mid-traffic may
// split one message's updates.
func (c *Channel) Stats() ChannelStats {
	return ChannelStats{
		MessagesSent: c.messagesSent.Load(),
		BytesSent:    c.bytesSent.Load(),
		InlineSends:  c.inlineSends.Load(),
		PooledSends:  c.pooledSends.Load(),
		HandleSends:  c.handleSends.Load(),
		CopiedBytes:  c.txCopied.Load() + c.rxCopied.Load(),
	}
}

func (c *Channel) countSend(n int) {
	c.messagesSent.Add(1)
	c.bytesSent.Add(int64(n))
}

func (c *Channel) register(e *outEntry) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	c.outstanding[id] = e
	return id
}

func (c *Channel) unregister(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.outstanding, id)
}

func (c *Channel) take(id uint64) *outEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.outstanding[id]
	delete(c.outstanding, id)
	return e
}

func grow(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]byte, n)
}
