package evpath

import (
	"encoding/binary"
	"fmt"
	"io"

	"flexio/internal/shm"
)

// Wire framing for the TCP transport: every frame is a 4-byte big-endian
// length followed by a fixed header and an opaque payload. The length
// counts everything after itself, so a reader can skip unknown ops and a
// partial read can never be mistaken for a frame boundary.
//
//	uint32  length (= 17 + len(payload))
//	byte    op
//	uint64  dialerID   } the channel key: dialerID is minted once per
//	uint64  chanID     } dialing Net, chanID per logical connection
//	...     payload
//
// Multiple logical connections (channels) share one physical socket; the
// key routes each frame to its channel. Ops:
//
//	opOpen       dialer -> acceptor: create channel for contact `payload`
//	opAccept     acceptor -> dialer: open succeeded
//	opReject     acceptor -> dialer: open failed, reason in payload
//	opData       either direction: one message
//	opClose      either direction: orderly half of channel teardown
//	opResume     dialer -> acceptor: reattach channel after a redial
//	opResumeOK   acceptor -> dialer: channel reattached
//	opResumeFail acceptor -> dialer: channel unknown or already closed
const (
	opOpen byte = iota + 1
	opAccept
	opReject
	opData
	opClose
	opResume
	opResumeOK
	opResumeFail
)

// frameHeaderLen is the fixed part after the length word: op + two ids.
const frameHeaderLen = 1 + 8 + 8

// FrameOverhead is the per-message wire overhead of the TCP transport:
// the length word plus the frame header. Callers attributing
// bytes-on-wire (flight-recorder send.tcp events) add it to the payload
// size; tcpChan exposes it via WireOverhead.
const FrameOverhead = 4 + frameHeaderLen

// DefaultMaxFrame bounds a single frame's payload (64 MiB). Larger
// announcements are a protocol violation and hang up the link — a
// corrupt or hostile peer must not be able to make us allocate
// unboundedly.
const DefaultMaxFrame = 64 << 20

// ErrFrameTooLarge reports a frame whose announced payload exceeds the
// configured maximum.
var ErrFrameTooLarge = fmt.Errorf("%w: frame exceeds size limit", ErrCorrupt)

// frame is one decoded wire frame.
type frame struct {
	op      byte
	dialer  uint64
	chanID  uint64
	payload []byte
}

// chanKey identifies one logical channel across every socket it ever
// rides (a resumed channel keeps its key on the new socket).
type chanKey struct {
	dialer uint64
	id     uint64
}

func (k chanKey) String() string { return fmt.Sprintf("%x.%x", k.dialer, k.id) }

// appendFrameHeader encodes the length word and fixed header of a frame
// carrying n payload bytes into buf (which may be nil) and returns it.
func appendFrameHeader(buf []byte, op byte, key chanKey, n int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(frameHeaderLen+n))
	buf = append(buf, op)
	buf = binary.BigEndian.AppendUint64(buf, key.dialer)
	return binary.BigEndian.AppendUint64(buf, key.id)
}

// appendFrame encodes a whole frame, payload included, into buf. The send
// path uses it for frames small enough to coalesce; it is also the
// reference encoder the wire-format tests compare against.
func appendFrame(buf []byte, op byte, key chanKey, payload []byte) []byte {
	return append(appendFrameHeader(buf, op, key, len(payload)), payload...)
}

// readFrame reads exactly one frame. Partial reads are handled by
// io.ReadFull; an announced length below the header size or above max
// fails with ErrCorrupt/ErrFrameTooLarge before anything is allocated.
// With a non-nil pool the payload of an opData frame is drawn from it
// (and returned to it if the read fails): the caller owns that buffer and
// must Put or Forget it. Every other payload is a fresh allocation.
func readFrame(r io.Reader, max int, pool *shm.BufferPool) (frame, error) {
	var hdr [4 + frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return frame{}, err
	}
	length := int(binary.BigEndian.Uint32(hdr[:4]))
	if length < frameHeaderLen {
		return frame{}, fmt.Errorf("%w: frame length %d below header", ErrCorrupt, length)
	}
	if max > 0 && length > frameHeaderLen+max {
		return frame{}, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, length-frameHeaderLen, max)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return frame{}, err
	}
	f := frame{
		op:     hdr[4],
		dialer: binary.BigEndian.Uint64(hdr[5:13]),
		chanID: binary.BigEndian.Uint64(hdr[13:21]),
	}
	n := length - frameHeaderLen
	if n == 0 {
		return f, nil
	}
	pooled := pool != nil && f.op == opData
	if pooled {
		var err error
		if f.payload, err = pool.Get(n); err != nil {
			return frame{}, err
		}
	} else {
		f.payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, f.payload); err != nil {
		if pooled {
			pool.Put(f.payload)
		}
		return frame{}, err
	}
	return f, nil
}
