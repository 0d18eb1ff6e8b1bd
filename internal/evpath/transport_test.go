package evpath

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

func newTestNet() *Net {
	return NewNet(nil)
}

func allKinds() []TransportKind {
	return []TransportKind{ChanTransport, ShmTransport, TCPTransport}
}

// newKindNet returns a Net on which kind can be dialed to a local
// listener: tcp needs the loopback wire served, the others nothing.
func newKindNet(t *testing.T, kind TransportKind) *Net {
	t.Helper()
	n := newTestNet()
	if kind == TCPTransport {
		if err := n.ServeLoopback(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.CloseTCP)
	}
	return n
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
			n := newKindNet(t, kind)
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
				bytes.Repeat([]byte{0x5A}, 300000), // large: pooled / multi-KiB frame path
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
			n := newKindNet(t, kind)
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
