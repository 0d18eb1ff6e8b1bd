package evpath

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"flexio/internal/flight"
	"flexio/internal/shm"
)

// Conn is a bidirectional message-oriented connection between two FlexIO
// processes. Which concrete transport backs it is invisible to callers —
// that is exactly the property FlexIO needs to reconfigure transports per
// placement without touching application code.
type Conn interface {
	// Send delivers one message, blocking under backpressure.
	Send(msg []byte) error
	// Recv blocks for the next message; io.EOF after Close.
	Recv() ([]byte, error)
	// Close shuts the connection down in both directions.
	Close() error
	// Transport names the backing transport ("chan", "shm", "tcp").
	Transport() string
}

// TransportKind selects a connection's transport at Dial time. FlexIO's
// runtime picks ShmTransport for on-node peers and TCPTransport across
// nodes (see TransportBetween: "intra- vs inter-node transports are
// automatically configured according to the placements").
type TransportKind int

const (
	ChanTransport TransportKind = iota // in-process Go channels (loopback)
	ShmTransport                       // FastForward queues + buffer pool
	TCPTransport                       // length-prefixed frames over TCP/TLS sockets
)

// TransportBetween is the one node -> transport rule: peers on the same
// node share memory, peers on different nodes cross the wire.
func TransportBetween(nodeA, nodeB int) TransportKind {
	if nodeA == nodeB {
		return ShmTransport
	}
	return TCPTransport
}

func (k TransportKind) String() string {
	switch k {
	case ChanTransport:
		return "chan"
	case ShmTransport:
		return "shm"
	case TCPTransport:
		return "tcp"
	}
	return fmt.Sprintf("TransportKind(%d)", int(k))
}

// ErrPeerUnknown reports a Dial to a name nobody listens on.
var ErrPeerUnknown = errors.New("evpath: no listener for peer")

// ErrNoHandle reports a SendHandle the transport cannot express (e.g. a
// header too large to ride the inline queue); the caller should fall back
// to a copying Send.
var ErrNoHandle = errors.New("evpath: transport cannot pass payload handle")

// HandleConn is the optional interface of transports that can deliver a
// payload by reference instead of by copy — the same-node XPMEM-style
// hand-off. SendHandle transfers payload ownership to the transport until
// the receiver's release callback runs (exactly once, from any
// goroutine); release also runs if the connection closes first, so
// producer buffers are never stranded. RecvHandle returns (msg, nil, nil)
// for ordinary copied messages interleaved on the same connection and
// (hdr, payload, release) for handle deliveries; the caller must invoke
// release once it no longer reads payload. A receiver that only calls
// Recv still works: handle messages are flattened to hdr⧺payload by copy.
type HandleConn interface {
	Conn
	SendHandle(hdr, payload []byte, release func()) error
	RecvHandle() (msg []byte, payload []byte, release func(), err error)
}

// Net is the in-process connection manager: listeners register by contact
// name, dialers connect by name and transport kind.
type Net struct {
	tcpCfg TCPConfig // wire-transport tunables, fixed at NewNet

	mu         sync.Mutex
	listeners  map[string]*Listener
	listenCond *sync.Cond // broadcast on Listen; lazily created by waiters
	journal    *flight.Journal
	shmChans   []*shm.Channel
	tcp        *tcpState // wire transport; nil until first TCP use
}

// NewNet creates a connection manager. cfg tunes the wire transport;
// nil (or zero fields) selects the defaults.
func NewNet(cfg *TCPConfig) *Net {
	n := &Net{listeners: make(map[string]*Listener)}
	if cfg != nil {
		n.tcpCfg = *cfg
	}
	n.tcpCfg = n.tcpCfg.withDefaults()
	return n
}

// Listener accepts incoming connections for one contact name.
type Listener struct {
	name   string
	net    *Net
	accept chan Conn
	closed atomic.Bool
}

// Listen registers a contact name. Names must be unique while listening.
// When the Net serves TCP and a publisher is installed, the contact is
// also published at the serving address so remote peers can dial it.
func (n *Net) Listen(name string) (*Listener, error) {
	n.mu.Lock()
	if _, dup := n.listeners[name]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("evpath: listener %q exists", name)
	}
	l := &Listener{name: name, net: n, accept: make(chan Conn, 16)}
	n.listeners[name] = l
	if n.listenCond != nil {
		n.listenCond.Broadcast()
	}
	st := n.tcp
	n.mu.Unlock()
	if st != nil {
		if err := st.publishContact(name); err != nil {
			n.mu.Lock()
			delete(n.listeners, name)
			n.mu.Unlock()
			return nil, fmt.Errorf("evpath: publish contact %q: %w", name, err)
		}
	}
	return l, nil
}

// waitListener blocks up to d for a listener on name to appear — the
// wire transport's grace window for dials that race a peer's Listen
// (e.g. new-epoch data contacts during a reconfiguration).
func (n *Net) waitListener(name string, d time.Duration) *Listener {
	deadline := time.Now().Add(d)
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if l, ok := n.listeners[name]; ok && !l.closed.Load() {
			return l
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		if n.listenCond == nil {
			n.listenCond = sync.NewCond(&n.mu)
		}
		cond := n.listenCond
		t := time.AfterFunc(remain, func() {
			n.mu.Lock()
			cond.Broadcast()
			n.mu.Unlock()
		})
		cond.Wait()
		t.Stop()
	}
}

// Accept blocks for the next inbound connection; ok=false after Close.
func (l *Listener) Accept() (Conn, bool) {
	c, ok := <-l.accept
	return c, ok
}

// Close stops accepting, removes the registration, and retracts any
// published contact.
func (l *Listener) Close() {
	if l.closed.Swap(true) {
		return
	}
	l.net.mu.Lock()
	delete(l.net.listeners, l.name)
	st := l.net.tcp
	l.net.mu.Unlock()
	if st != nil {
		st.retractContact(l.name)
	}
	close(l.accept)
}

// Dial connects to a listening name over the given transport. The
// dialer-side Conn is returned; the listener receives the peer Conn via
// Accept. nodeA/nodeB are unused; they remain so existing callers that
// pass a placement's node ids keep compiling.
//
// The requested kind is a local-placement hint: TCPTransport always goes
// over the wire, and any kind falls through to the wire when no local
// listener serves the name but a TCP resolver is installed — so code
// that dials by contact (coordinator handshakes, epoch data contacts)
// reaches remote processes without knowing where ranks live.
func (n *Net) Dial(name string, kind TransportKind, nodeA, nodeB int) (Conn, error) {
	if kind == TCPTransport {
		return n.dialTCP(name)
	}
	n.mu.Lock()
	l, ok := n.listeners[name]
	if !ok || l.closed.Load() {
		remote := n.tcp != nil
		n.mu.Unlock()
		if remote {
			return n.dialTCP(name)
		}
		return nil, fmt.Errorf("%w: %q", ErrPeerUnknown, name)
	}
	n.mu.Unlock()

	var a, b Conn
	var err error
	switch kind {
	case ChanTransport:
		a, b = newChanPair()
	case ShmTransport:
		a, b, err = newShmPair()
	default:
		err = fmt.Errorf("evpath: unknown transport %v", kind)
	}
	if err != nil {
		return nil, err
	}
	if kind == ShmTransport {
		n.trackShmConn(a)
	}
	select {
	case l.accept <- b:
		return a, nil
	default:
		a.Close()
		b.Close()
		return nil, fmt.Errorf("evpath: listener %q accept queue full", name)
	}
}

// ---------------------------------------------------------------------
// chan transport

type chanConn struct {
	out       chan<- []byte
	in        <-chan []byte
	closeOnce *sync.Once
	done      chan struct{}
}

func newChanPair() (Conn, Conn) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &chanConn{out: ab, in: ba, closeOnce: once, done: done}
	b := &chanConn{out: ba, in: ab, closeOnce: once, done: done}
	return a, b
}

func (c *chanConn) Send(msg []byte) error {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	select {
	case c.out <- cp:
		return nil
	case <-c.done:
		return io.ErrClosedPipe
	}
}

func (c *chanConn) Recv() ([]byte, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.done:
		// Drain anything already buffered before reporting EOF.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return nil, io.EOF
		}
	}
}

func (c *chanConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

func (c *chanConn) Transport() string { return "chan" }

// ---------------------------------------------------------------------
// shm transport: two one-directional shm.Channels.

type shmConn struct {
	tx *shm.Channel
	rx *shm.Channel
}

// shmInlineMax mirrors the paper's design: handshake-sized messages ride
// the FastForward queue, larger payloads go through the buffer pool.
const shmInlineMax = 1024

func newShmPair() (Conn, Conn, error) {
	ab, err := shm.NewChannel(256, shmInlineMax, 256<<20)
	if err != nil {
		return nil, nil, err
	}
	ba, err := shm.NewChannel(256, shmInlineMax, 256<<20)
	if err != nil {
		return nil, nil, err
	}
	return &shmConn{tx: ab, rx: ba}, &shmConn{tx: ba, rx: ab}, nil
}

func (c *shmConn) Send(msg []byte) error {
	if !c.tx.Send(msg) {
		return io.ErrClosedPipe
	}
	return nil
}

func (c *shmConn) Recv() ([]byte, error) {
	m, ok := c.rx.Recv(nil)
	if !ok {
		return nil, io.EOF
	}
	return m, nil
}

// SendHandle implements HandleConn over the shm channel's handle-passing
// message kind: the header is copied inline, the payload crosses by
// reference and returns to the producer via release.
func (c *shmConn) SendHandle(hdr, payload []byte, release func()) error {
	switch err := c.tx.SendHandle(hdr, payload, release); {
	case err == nil:
		return nil
	case errors.Is(err, shm.ErrHandleTooLarge):
		return ErrNoHandle
	case errors.Is(err, shm.ErrClosed):
		return io.ErrClosedPipe
	default:
		return err
	}
}

// RecvHandle implements HandleConn: handle messages surface the
// producer's buffer by reference, all other kinds arrive as a plain
// copied message with a nil payload.
func (c *shmConn) RecvHandle() ([]byte, []byte, func(), error) {
	m, ok := c.rx.RecvMsg(nil)
	if !ok {
		return nil, nil, nil, io.EOF
	}
	return m.Msg, m.Payload, m.Release, nil
}

func (c *shmConn) Close() error {
	c.tx.Close()
	c.rx.Close()
	return nil
}

func (c *shmConn) Transport() string { return "shm" }
