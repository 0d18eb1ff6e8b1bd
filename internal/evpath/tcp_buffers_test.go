package evpath

import (
	"bytes"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"testing"

	"flexio/internal/monitor"
)

// Tests for the buffer ownership of the TCP hop: the gather send must put
// exactly the reference encoder's bytes on the wire, a lent receive buffer
// must come back for the next frame, a kept one never, and both must
// survive a mid-stream redial.

// lender is the receive half of HandleConn, which is all tcpChan has of it.
type lender interface {
	RecvHandle() (msg, payload []byte, release func(), err error)
}

// stamped returns n bytes that identify message k at every offset.
func stamped(k, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(k*31 + i*7 + i>>8)
	}
	return b
}

// TestSendFrameWireBytes: whatever sendFrame does with a message —
// coalesce it into wbuf or gather it behind a separately built header —
// the byte stream equals appendFrame(nil, opData, key, EncodeEvent(ev)).
// Sizes straddle coalesceBelow; the pipe has no writev (the path a
// tls.Conn takes: two Writes), the loopback socket has.
func TestSendFrameWireBytes(t *testing.T) {
	pipe := func(t *testing.T) (net.Conn, net.Conn) { return net.Pipe() }
	socket := func(t *testing.T) (net.Conn, net.Conn) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		w, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		r, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return w, r
	}
	meta := Record{"kind": "data", "step": int64(7), "var": "zion", "writer": int64(1)}
	hdr, err := EncodeEvent(&Event{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	at := coalesceBelow - len(hdr) // the Data size that puts the message on the threshold
	key := chanKey{dialer: 0xFEED, id: 9}

	for name, mk := range map[string]func(*testing.T) (net.Conn, net.Conn){"pipe": pipe, "socket": socket} {
		t.Run(name, func(t *testing.T) {
			w, r := mk(t)
			defer r.Close()
			l := newTCPState(NewNet(nil)).newLink(w, "test", true)
			for k, n := range []int{0, 1, at - 1, at, at + 1, 1 << 20} {
				msg, err := EncodeEvent(&Event{Meta: meta, Data: stamped(k, n)})
				if err != nil {
					t.Fatal(err)
				}
				if n == at && len(msg) != coalesceBelow {
					t.Fatalf("message of %d bytes misses the threshold %d", len(msg), coalesceBelow)
				}
				want := appendFrame(nil, opData, key, msg)
				got := make([]byte, len(want))
				read := make(chan error, 1)
				go func() {
					_, err := io.ReadFull(r, got)
					read <- err
				}()
				if err := l.sendFrame(opData, key, msg); err != nil {
					t.Fatalf("sendFrame(%d bytes): %v", len(msg), err)
				}
				if err := <-read; err != nil {
					t.Fatalf("read %d-byte frame: %v", len(want), err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("payload %d: wire bytes differ from the reference encoder", n)
				}
				if len(want) != len(msg)+FrameOverhead {
					t.Fatalf("frame is %d bytes for a %d-byte message, want +%d", len(want), len(msg), FrameOverhead)
				}
				if l.iov[1] != nil {
					t.Fatal("link still references the caller's message after the send")
				}
			}
			// Nothing but those frames was written.
			w.Close()
			if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("trailing bytes on the wire: n=%d err=%v", n, err)
			}
		})
	}
}

// TestTCPReceiveBufferOwnership interleaves the two receive calls on one
// channel (two loans, then one plain Recv). A message lent out by RecvHandle goes back to the pool at
// release and its buffer carries a later frame; a message returned by
// plain Recv is the caller's for good — it is never recycled under the
// caller, and it leaves the pool's in-use accounting. The pool shows up
// next to the other tcp gauges.
func TestTCPReceiveBufferOwnership(t *testing.T) {
	_, server, a, b := tcpPair(t, "own.e1.r0")
	hr, ok := b.(lender)
	if !ok {
		t.Fatal("tcp conn has no RecvHandle")
	}
	if _, ok := b.(HandleConn); ok {
		t.Fatal("tcp conn must not grow a send-side handle interface")
	}
	const msgs, size = 40, 8 << 10
	var kept [][]byte
	keptAt := map[*byte]bool{}
	lent := map[*byte]int{}
	for k := 0; k < msgs; k++ {
		if err := a.Send(stamped(k, size)); err != nil {
			t.Fatalf("send %d: %v", k, err)
		}
		if k%3 == 0 {
			m, err := b.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", k, err)
			}
			kept = append(kept, m)
			keptAt[&m[0]] = true
			continue
		}
		m, payload, release, err := hr.RecvHandle()
		if err != nil || payload != nil || release == nil {
			t.Fatalf("RecvHandle %d = payload %v, release nil=%v, err %v", k, payload != nil, release == nil, err)
		}
		if !bytes.Equal(m, stamped(k, size)) {
			t.Fatalf("lent message %d corrupt", k)
		}
		if keptAt[&m[0]] {
			t.Fatalf("message %d arrived in a buffer Recv had given away", k)
		}
		lent[&m[0]]++
		release()
	}
	for i, m := range kept {
		if !bytes.Equal(m, stamped(3*i, size)) {
			t.Fatalf("kept message %d was overwritten after Recv returned it", 3*i)
		}
	}
	if loans := msgs - len(kept); len(lent) >= loans {
		t.Fatalf("%d lent messages used %d distinct buffers: releases are not recycled", loans, len(lent))
	}
	ps := server.tcpState().rxPool.Stats()
	if ps.BytesInUse != 0 {
		t.Fatalf("receive pool counts %d bytes in use with nothing on loan", ps.BytesInUse)
	}

	// An empty message has no buffer; its release must still be callable.
	if err := a.Send(nil); err != nil {
		t.Fatal(err)
	}
	m, _, release, err := hr.RecvHandle()
	if err != nil || len(m) != 0 {
		t.Fatalf("empty message = %d bytes, %v", len(m), err)
	}
	release()

	mon := monitor.New("rx")
	server.ReportTCP(mon, "tcp.")
	g := mon.Snapshot().Gauges
	if g["tcp.rx_pool_reuses"] < 1 || g["tcp.rx_pool_allocs"] < int64(len(kept)) || g["tcp.rx_pool_high_bytes"] < size {
		t.Fatalf("receive pool gauges: reuses=%d allocs=%d high=%d",
			g["tcp.rx_pool_reuses"], g["tcp.rx_pool_allocs"], g["tcp.rx_pool_high_bytes"])
	}
}

// TestTCPRedialLargeMessages cuts the link under a stream of 1 MiB
// messages — the gather-send and pooled-receive paths — over plain TCP
// and over TLS (where the gather degrades to two Writes): every message
// arrives exactly once, in order, intact, across at least one redial.
func TestTCPRedialLargeMessages(t *testing.T) {
	for _, scheme := range []string{"tcp", "tls"} {
		t.Run(scheme, func(t *testing.T) {
			var srvCfg, cliCfg *tls.Config
			if scheme == "tls" {
				srvCfg, cliCfg = selfSignedTLS(t)
			}
			client, _, a, b := tcpPairTLS(t, "big."+scheme+".e1.r0", srvCfg, cliCfg, nil)
			client.InjectTCPFaults(TCPFaults{DropAfterSends: 4})

			const total, size = 9, 1 << 20
			hr := b.(lender)
			recvErr := make(chan error, 1)
			go func() {
				for k := 0; k < total; k++ {
					m, _, release, err := hr.RecvHandle()
					if err != nil {
						recvErr <- fmt.Errorf("recv %d: %w", k, err)
						return
					}
					same := bytes.Equal(m, stamped(k, size))
					release()
					if !same {
						recvErr <- fmt.Errorf("message %d lost, reordered or corrupt", k)
						return
					}
				}
				recvErr <- nil
			}()
			for k := 0; k < total; k++ {
				if err := a.Send(stamped(k, size)); err != nil {
					t.Fatalf("send %d: %v", k, err)
				}
			}
			if err := <-recvErr; err != nil {
				t.Fatal(err)
			}
			s := client.TCPStatsSnapshot()
			if s.Drops != 1 || s.Redials < 1 || s.Resumes < 1 {
				t.Fatalf("drops=%d redials=%d resumes=%d, want 1, >=1, >=1", s.Drops, s.Redials, s.Resumes)
			}
			if s.MsgsTX != total {
				t.Fatalf("msgsTX = %d, want %d (a message was sent twice or not at all)", s.MsgsTX, total)
			}
		})
	}
}
