package evpath

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"flexio/internal/machine"
	"flexio/internal/rdma"
)

func newTestNet() *Net {
	return NewNet(rdma.NewFabric(machine.Titan(4).Net))
}

func allKinds() []TransportKind {
	return []TransportKind{ChanTransport, ShmTransport, RDMATransport}
}

func TestDialUnknownPeer(t *testing.T) {
	n := newTestNet()
	if _, err := n.Dial("nobody", ChanTransport, 0, 0); !errors.Is(err, ErrPeerUnknown) {
		t.Fatalf("err = %v, want ErrPeerUnknown", err)
	}
}

func TestListenDuplicate(t *testing.T) {
	n := newTestNet()
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Fatal("duplicate listen must fail")
	}
}

func TestListenerClose(t *testing.T) {
	n := newTestNet()
	l, _ := n.Listen("x")
	l.Close()
	if _, ok := l.Accept(); ok {
		t.Fatal("accept after close must report !ok")
	}
	if _, err := n.Dial("x", ChanTransport, 0, 0); err == nil {
		t.Fatal("dial to closed listener must fail")
	}
	// Name can be reused.
	if _, err := n.Listen("x"); err != nil {
		t.Fatal("name must be reusable after close")
	}
}

func TestConnRoundTripAllTransports(t *testing.T) {
	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			n := newTestNet()
			l, err := n.Listen("svc")
			if err != nil {
				t.Fatal(err)
			}
			dialer, err := n.Dial("svc", kind, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			acceptor, ok := l.Accept()
			if !ok {
				t.Fatal("accept failed")
			}
			if dialer.Transport() != kind.String() {
				t.Fatalf("transport = %q, want %q", dialer.Transport(), kind)
			}

			// Small and large messages, both directions.
			msgs := [][]byte{
				[]byte("small"),
				bytes.Repeat([]byte{0x5A}, 300000), // large: pooled / RDMA Get path
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, m := range msgs {
					if err := dialer.Send(m); err != nil {
						t.Errorf("send %d: %v", i, err)
						return
					}
				}
				// Echo back what we receive.
				for range msgs {
					m, err := dialer.Recv()
					if err != nil {
						t.Errorf("dialer recv: %v", err)
						return
					}
					if err := dialer.Send(m); err != nil {
						t.Errorf("echo send: %v", err)
						return
					}
				}
			}()
			for i, want := range msgs {
				got, err := acceptor.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("recv %d: %d bytes, want %d", i, len(got), len(want))
				}
				if err := acceptor.Send(got); err != nil {
					t.Fatalf("send back %d: %v", i, err)
				}
			}
			for i, want := range msgs {
				got, err := acceptor.Recv()
				if err != nil {
					t.Fatalf("echo recv %d: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("echo %d mismatch", i)
				}
			}
			wg.Wait()
			dialer.Close()
			acceptor.Close()
		})
	}
}

func TestConnCloseYieldsEOF(t *testing.T) {
	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			n := newTestNet()
			l, _ := n.Listen("svc")
			dialer, err := n.Dial("svc", kind, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			acceptor, _ := l.Accept()
			done := make(chan error, 1)
			go func() {
				_, err := acceptor.Recv()
				done <- err
			}()
			dialer.Close()
			if kind == ShmTransport || kind == ChanTransport {
				// These close both directions from either side.
			} else {
				acceptor.Close()
			}
			err = <-done
			if !errors.Is(err, io.EOF) {
				t.Fatalf("recv after close = %v, want EOF", err)
			}
		})
	}
}

func TestRDMAManyLargeMessagesReusesCache(t *testing.T) {
	n := newTestNet()
	l, _ := n.Listen("svc")
	a, err := n.Dial("svc", RDMATransport, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := l.Accept()
	const rounds = 30
	payload := bytes.Repeat([]byte{7}, 128<<10)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := a.Send(payload); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(got) != len(payload) {
			t.Fatalf("recv %d: %d bytes", i, len(got))
		}
	}
	wg.Wait()
	// Wait for the receiver's acks to release every outstanding send
	// buffer, then one more send must hit the registration cache:
	// reuse is the whole point of the cache.
	rc := a.(*rdmaConn)
	deadline := time.Now().Add(5 * time.Second)
	for {
		rc.drainAcks()
		rc.mu.Lock()
		pending := len(rc.outstanding)
		rc.mu.Unlock()
		if pending == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		a.Send(payload)
		close(done)
	}()
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	<-done
	st := rc.cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("registration cache never hit: %+v", st)
	}
	a.Close()
	b.Close()
}

func TestManyConcurrentConns(t *testing.T) {
	n := newTestNet()
	l, _ := n.Listen("hub")
	const peers = 8
	var wg sync.WaitGroup
	for p := 0; p < peers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := n.Dial("hub", ChanTransport, 0, 0)
			if err != nil {
				t.Errorf("dial %d: %v", p, err)
				return
			}
			c.Send([]byte(fmt.Sprintf("hello-%d", p)))
			c.Close()
		}()
	}
	got := map[string]bool{}
	for p := 0; p < peers; p++ {
		c, ok := l.Accept()
		if !ok {
			t.Fatal("accept failed")
		}
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got[string(m)] = true
	}
	wg.Wait()
	if len(got) != peers {
		t.Fatalf("got %d distinct hellos, want %d", len(got), peers)
	}
}
