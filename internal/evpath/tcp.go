package evpath

import (
	"bufio"
	"crypto/rand"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexio/internal/flight"
	"flexio/internal/monitor"
	"flexio/internal/shm"
)

// The TCP transport turns the in-process Net into a real wire: contacts
// that no local listener serves are resolved (normally against the
// directory) to a peer's advertised address and dialed over a pooled TCP
// or TLS socket. One physical socket per remote address carries many
// logical channels, each identified by a {dialerID, chanID} key minted by
// the dialing side; frames are length-prefixed (frame.go) and carry the
// same codec-encoded events the in-process transports do, so `core`
// writers and readers select TCP purely by contact and everything above
// the Conn interface — epoch-qualified contacts, Reconfigure, plug-in
// shipping — works unchanged across processes.
//
// Fault model: a failed socket detaches its channels rather than killing
// them. The dialing side redials with exponential backoff and reattaches
// each surviving channel with an opResume handshake; the accepting side
// parks detached channels for ResumeTimeout before surfacing EOF. An
// injected disconnect (TCPFaults.DropAfterSends) half-closes the socket
// before any byte of the pending frame is written, so the peer drains
// everything already sent and no message is lost or duplicated across
// the redial.
//
// Buffer ownership: a data message crosses each side with one user-space
// copy. Send writes the caller's slice to the socket behind a separately
// built frame header (one writev) and holds it only until the write
// returns. The receiving demux reads each data payload into a buffer from
// the Net's receive pool; RecvHandle lends that buffer out until the
// consumer's release returns it for the next frame, while plain Recv gives
// it away for good.

// rxPoolRetain bounds the bytes the receive pool keeps on its free lists:
// four largest-size frames, beyond which released buffers go to the GC.
const rxPoolRetain = 4 * DefaultMaxFrame

// coalesceBelow is the message size under which a frame is copied behind
// its header and leaves in one Write: below a page the memcpy is cheaper
// than a second iovec (over TLS, a second record).
const coalesceBelow = 4 << 10

// ContactPublisher is the hook a directory client implements so that
// Listen/Close on a serving Net publish and retract contact → address
// mappings for remote dialers to resolve.
type ContactPublisher interface {
	PublishContact(contact, addr string) error
	RetractContact(contact string) error
}

// WireConn is the optional interface of transports whose sends cross a
// real wire with per-message framing overhead; core's send path uses it
// to attribute bytes-on-wire (payload + framing) in journal events.
type WireConn interface {
	Conn
	WireOverhead() int
}

// TCPConfig tunes the wire transport. Zero values select the defaults.
type TCPConfig struct {
	MaxFrame       int           // per-frame payload cap (DefaultMaxFrame)
	DialTimeout    time.Duration // physical connect timeout (5s)
	OpenTimeout    time.Duration // open/resume handshake wait (5s)
	AcceptWait     time.Duration // acceptor's wait for a local listener (2s)
	RedialBase     time.Duration // first redial backoff (20ms)
	RedialMax      time.Duration // backoff ceiling (1s)
	RedialAttempts int           // redial attempts before giving up (6)
	ResumeTimeout  time.Duration // acceptor's wait for a resume (10s)
	InboxDepth     int           // per-channel receive buffer, messages (64)
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 5 * time.Second
	}
	if c.AcceptWait <= 0 {
		c.AcceptWait = 2 * time.Second
	}
	if c.RedialBase <= 0 {
		c.RedialBase = 20 * time.Millisecond
	}
	if c.RedialMax <= 0 {
		c.RedialMax = time.Second
	}
	if c.RedialAttempts <= 0 {
		c.RedialAttempts = 6
	}
	if c.ResumeTimeout <= 0 {
		c.ResumeTimeout = 10 * time.Second
	}
	if c.InboxDepth <= 0 {
		c.InboxDepth = 64
	}
	return c
}

// TCPStats is a snapshot of the wire transport's cumulative counters.
type TCPStats struct {
	Dials     uint64 // physical connect attempts (including failed)
	Redials   uint64 // connect attempts made to resume failed links
	Accepts   uint64 // inbound sockets accepted
	Opens     uint64 // logical channels opened (both sides)
	Resumes   uint64 // channels successfully reattached after a failure
	Drops     uint64 // injected disconnects taken
	ProtoErrs uint64 // corrupt or oversized frames that hung up a link
	MsgsTX    uint64
	MsgsRX    uint64
	BytesTX   uint64 // on-wire bytes sent (payload + framing)
	BytesRX   uint64
}

type tcpCounters struct {
	dials, redials, accepts, opens, resumes, drops uint64
	protoErrs, msgsTX, msgsRX, bytesTX, bytesRX    uint64
}

var (
	errLinkFailed     = errors.New("evpath: tcp link failed")
	errResumeRejected = errors.New("evpath: peer rejected channel resume")
	errTCPClosed      = errors.New("evpath: tcp transport shut down")
)

// tcpState is the per-Net wire-transport state, created lazily by the
// first ServeTCP/SetResolver/ConfigureTCP/InjectTCPFaults call.
type tcpState struct {
	net      *Net
	dialerID uint64
	nextChan atomic.Uint64
	journal  atomic.Pointer[flight.Journal]

	mu        sync.Mutex
	cfg       TCPConfig
	closed    bool
	advertise string
	servers   []net.Listener
	links     map[string]*tcpLink // dialed links by remote address
	allLinks  map[*tcpLink]struct{}
	dialing   map[string]chan struct{} // singleflight per address
	accepted  map[chanKey]*tcpChan     // acceptor-side channels, for resume
	resolver  func(contact string) (addr string, err error)
	publisher ContactPublisher
	clientTLS func(addr string) *tls.Config

	faultMu       sync.Mutex
	failDialsLeft int
	dropArmed     bool
	dropCountdown int
	sendLatencyNS atomic.Int64

	// rxPool recycles the buffers data frames are read into; freeLeases
	// recycles the rxLease objects that lend them out. (A plain free list,
	// not a sync.Pool: the runtime keeps every used sync.Pool reachable for
	// two more GC cycles, which would pin a closed transport's state and
	// its pooled buffers with it.)
	rxPool     *shm.BufferPool
	leaseMu    sync.Mutex
	freeLeases []*rxLease

	ctr tcpCounters
}

func newTCPState(n *Net) *tcpState {
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		panic(fmt.Sprintf("evpath: cannot mint dialer id: %v", err))
	}
	return &tcpState{
		net:      n,
		dialerID: binary.BigEndian.Uint64(idb[:]),
		cfg:      TCPConfig{}.withDefaults(),
		links:    make(map[string]*tcpLink),
		allLinks: make(map[*tcpLink]struct{}),
		dialing:  make(map[string]chan struct{}),
		accepted: make(map[chanKey]*tcpChan),
		rxPool:   shm.NewBufferPool(rxPoolRetain),
	}
}

// tcpInit returns the Net's wire-transport state, creating it on first
// use (it inherits any journal already attached to the Net).
func (n *Net) tcpInit() *tcpState {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.tcp == nil {
		n.tcp = newTCPState(n)
		n.tcp.journal.Store(n.journal)
	}
	return n.tcp
}

func (n *Net) tcpState() *tcpState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tcp
}

// ServeTCP starts accepting wire connections on bind ("host:port", port 0
// for ephemeral). A non-nil TLS config serves TLS and advertises a
// "tls://" address; otherwise "tcp://". The advertised address is what
// the process publishes next to its contacts; the first ServeTCP's
// address becomes the default advertisement.
func (n *Net) ServeTCP(bind string, tlsCfg *tls.Config) (string, error) {
	st := n.tcpInit()
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return "", err
	}
	scheme := "tcp"
	if tlsCfg != nil {
		ln = tls.NewListener(ln, tlsCfg)
		scheme = "tls"
	}
	adv := scheme + "://" + ln.Addr().String()
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		ln.Close()
		return "", errTCPClosed
	}
	st.servers = append(st.servers, ln)
	if st.advertise == "" {
		st.advertise = adv
	}
	st.mu.Unlock()
	go st.acceptLoop(ln)
	return adv, nil
}

// SetResolver installs the contact → wire-address lookup used when a
// dialed contact has no local listener (normally a directory WaitLookup).
func (n *Net) SetResolver(r func(contact string) (string, error)) {
	st := n.tcpInit()
	st.mu.Lock()
	st.resolver = r
	st.mu.Unlock()
}

// SetPublisher installs the hook through which Listen/Close publish and
// retract this process's contacts at the serving address.
func (n *Net) SetPublisher(p ContactPublisher) {
	st := n.tcpInit()
	st.mu.Lock()
	st.publisher = p
	st.mu.Unlock()
}

// SetClientTLS installs the per-address client TLS configuration used
// when dialing "tls://" peers (normally built from a directory-pinned
// certificate). Dialing a TLS peer without a hook fails.
func (n *Net) SetClientTLS(f func(addr string) *tls.Config) {
	st := n.tcpInit()
	st.mu.Lock()
	st.clientTLS = f
	st.mu.Unlock()
}

// ConfigureTCP replaces the transport tunables (zero fields select
// defaults). Affects links dialed and channels opened from now on.
func (n *Net) ConfigureTCP(cfg TCPConfig) {
	st := n.tcpInit()
	st.mu.Lock()
	st.cfg = cfg.withDefaults()
	st.mu.Unlock()
}

// TCPStatsSnapshot reads the wire transport's cumulative counters.
func (n *Net) TCPStatsSnapshot() TCPStats {
	st := n.tcpState()
	if st == nil {
		return TCPStats{}
	}
	return TCPStats{
		Dials:     atomic.LoadUint64(&st.ctr.dials),
		Redials:   atomic.LoadUint64(&st.ctr.redials),
		Accepts:   atomic.LoadUint64(&st.ctr.accepts),
		Opens:     atomic.LoadUint64(&st.ctr.opens),
		Resumes:   atomic.LoadUint64(&st.ctr.resumes),
		Drops:     atomic.LoadUint64(&st.ctr.drops),
		ProtoErrs: atomic.LoadUint64(&st.ctr.protoErrs),
		MsgsTX:    atomic.LoadUint64(&st.ctr.msgsTX),
		MsgsRX:    atomic.LoadUint64(&st.ctr.msgsRX),
		BytesTX:   atomic.LoadUint64(&st.ctr.bytesTX),
		BytesRX:   atomic.LoadUint64(&st.ctr.bytesRX),
	}
}

// ReportTCP publishes the wire transport's counters as monitor gauges
// under prefix (e.g. "tcp."), the receive pool's next to them: a live
// stream whose frames are being recycled shows rx_pool_reuses climbing
// while rx_pool_allocs stays flat. Gauges merge with max-semantics, so
// republishing from a poll loop is idempotent. A nop when the transport
// was never used.
func (n *Net) ReportTCP(m *monitor.Monitor, prefix string) {
	st := n.tcpState()
	if m == nil || st == nil {
		return
	}
	s := n.TCPStatsSnapshot()
	m.Set(prefix+"dials", int64(s.Dials))
	m.Set(prefix+"redials", int64(s.Redials))
	m.Set(prefix+"accepts", int64(s.Accepts))
	m.Set(prefix+"opens", int64(s.Opens))
	m.Set(prefix+"resumes", int64(s.Resumes))
	m.Set(prefix+"drops", int64(s.Drops))
	m.Set(prefix+"proto_errs", int64(s.ProtoErrs))
	m.Set(prefix+"msgs_tx", int64(s.MsgsTX))
	m.Set(prefix+"msgs_rx", int64(s.MsgsRX))
	m.Set(prefix+"bytes_tx", int64(s.BytesTX))
	m.Set(prefix+"bytes_rx", int64(s.BytesRX))
	ps := st.rxPool.Stats()
	m.Set(prefix+"rx_pool_reuses", ps.Reuses)
	m.Set(prefix+"rx_pool_allocs", ps.Allocs)
	m.Set(prefix+"rx_pool_high_bytes", ps.HighWater)
}

// CloseTCP shuts the wire transport down: serving sockets stop, every
// link fails terminally (no resume), and detached channels surface EOF.
// In-process transports are unaffected.
func (n *Net) CloseTCP() {
	st := n.tcpState()
	if st == nil {
		return
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	servers := st.servers
	st.servers = nil
	links := make([]*tcpLink, 0, len(st.allLinks))
	for l := range st.allLinks {
		links = append(links, l)
	}
	st.mu.Unlock()
	for _, ln := range servers {
		ln.Close()
	}
	for _, l := range links {
		l.fail(errTCPClosed)
	}
}

// publishContact announces a local listener at the serving address; a
// nop until both a publisher and a serving socket exist.
func (st *tcpState) publishContact(name string) error {
	st.mu.Lock()
	pub, adv := st.publisher, st.advertise
	st.mu.Unlock()
	if pub == nil || adv == "" {
		return nil
	}
	return pub.PublishContact(name, adv)
}

func (st *tcpState) retractContact(name string) {
	st.mu.Lock()
	pub := st.publisher
	st.mu.Unlock()
	if pub != nil {
		pub.RetractContact(name) //nolint:errcheck
	}
}

func (st *tcpState) isClosed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed
}

func (st *tcpState) config() TCPConfig {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cfg
}

func (st *tcpState) maxFrame() int { return st.config().MaxFrame }

func (st *tcpState) record(kind flight.Kind, point, channel string, bytes int) {
	j := st.journal.Load()
	if j == nil {
		return
	}
	j.Record(flight.Event{
		Kind: kind, Point: point, Channel: channel,
		T: j.Now(), Step: -1, Bytes: int64(bytes),
	})
}

// ---------------------------------------------------------------------
// fault hooks (state side; the public TCPFaults API lives in fault.go)

func (st *tcpState) setFaults(f TCPFaults) {
	st.faultMu.Lock()
	st.failDialsLeft = f.FailDials
	st.dropArmed = f.DropAfterSends > 0
	st.dropCountdown = f.DropAfterSends
	st.faultMu.Unlock()
	st.sendLatencyNS.Store(int64(f.SendLatency))
}

// takeDialFault consumes one injected dial failure if armed.
func (st *tcpState) takeDialFault() bool {
	st.faultMu.Lock()
	defer st.faultMu.Unlock()
	if st.failDialsLeft > 0 {
		st.failDialsLeft--
		return true
	}
	return false
}

// takeDrop consumes the armed injected disconnect when its send
// countdown reaches zero.
func (st *tcpState) takeDrop() bool {
	st.faultMu.Lock()
	defer st.faultMu.Unlock()
	if !st.dropArmed {
		return false
	}
	st.dropCountdown--
	if st.dropCountdown > 0 {
		return false
	}
	st.dropArmed = false
	atomic.AddUint64(&st.ctr.drops, 1)
	return true
}

func (st *tcpState) sendLatency() time.Duration {
	return time.Duration(st.sendLatencyNS.Load())
}

// bumpTX/bumpRX account one data message's on-wire bytes — the whole
// per-send accounting when no journal is attached, gated by
// TestTCPStatsNopBudget.
func (st *tcpState) bumpTX(wireBytes int) {
	atomic.AddUint64(&st.ctr.msgsTX, 1)
	atomic.AddUint64(&st.ctr.bytesTX, uint64(wireBytes))
}

func (st *tcpState) bumpRX(wireBytes int) {
	atomic.AddUint64(&st.ctr.msgsRX, 1)
	atomic.AddUint64(&st.ctr.bytesRX, uint64(wireBytes))
}

// ---------------------------------------------------------------------
// physical links

// tcpLink is one physical socket carrying many logical channels. A link
// fails as a unit; its channels detach and either resume (dialer side
// redials) or park awaiting the peer's resume (acceptor side).
type tcpLink struct {
	st         *tcpState
	addr       string // remote address; redial target on the dialer side
	dialerSide bool
	readDone   chan struct{} // closed when demux exits (link fully drained)

	// writeMu serializes frames onto the socket and guards the scratch
	// state of sendFrame: wbuf holds the frame header (and the payload of
	// coalesced frames); iov and bufs are the gather list of a writev send,
	// kept here so building one does not allocate.
	writeMu sync.Mutex
	wbuf    []byte
	iov     [2][]byte
	bufs    net.Buffers

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	chans  map[chanKey]*tcpChan
	failed bool
}

func (st *tcpState) newLink(conn net.Conn, addr string, dialerSide bool) *tcpLink {
	l := &tcpLink{
		st: st, addr: addr, dialerSide: dialerSide,
		readDone: make(chan struct{}),
		conn:     conn, br: bufio.NewReader(conn),
		chans: make(map[chanKey]*tcpChan),
	}
	st.mu.Lock()
	st.allLinks[l] = struct{}{}
	st.mu.Unlock()
	return l
}

func (l *tcpLink) isFailed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// attach registers ch on the link and points ch at it. Fails if the link
// already died; the post-set recheck closes the race with a concurrent
// fail() that snapshotted the channel map before our insert.
func (l *tcpLink) attach(ch *tcpChan) error {
	l.mu.Lock()
	if l.failed {
		l.mu.Unlock()
		return errLinkFailed
	}
	l.chans[ch.key] = ch
	l.mu.Unlock()
	ch.setLink(l)
	if l.isFailed() {
		ch.detach(l)
		return errLinkFailed
	}
	return nil
}

func (l *tcpLink) lookup(key chanKey) *tcpChan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chans[key]
}

func (l *tcpLink) remove(key chanKey) {
	l.mu.Lock()
	delete(l.chans, key)
	l.mu.Unlock()
}

// sendFrame serializes one frame onto the socket. Small frames are
// coalesced into wbuf; from coalesceBelow up, the header and the caller's
// payload leave as one gather write (writev on a TCP socket, two Writes
// on a tls.Conn), so the payload is never copied in user space and is
// referenced only until the write returns. Any write error is terminal
// for the link (the caller invokes fail).
func (l *tcpLink) sendFrame(op byte, key chanKey, payload []byte) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	if l.isFailed() {
		return errLinkFailed
	}
	if len(payload) < coalesceBelow {
		buf := appendFrame(l.wbuf[:0], op, key, payload)
		l.wbuf = buf[:0]
		_, err := l.conn.Write(buf)
		return err
	}
	hdr := appendFrameHeader(l.wbuf[:0], op, key, len(payload))
	l.wbuf = hdr[:0]
	l.iov = [2][]byte{hdr, payload}
	l.bufs = l.iov[:]
	_, err := l.bufs.WriteTo(l.conn)
	l.iov = [2][]byte{} // a failed write leaves entries behind: unpin the payload
	return err
}

// halfClose shuts down the write direction only (FIN): the peer drains
// everything already sent, then reads EOF and fails the link from its
// side. Used by the injected-disconnect fault so no delivered byte is
// lost. Falls back to a full close for conns without CloseWrite.
func (l *tcpLink) halfClose() {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := l.conn.(closeWriter); ok {
		cw.CloseWrite() //nolint:errcheck
		return
	}
	l.conn.Close()
}

// fail tears the link down once: the socket closes (unblocking demux),
// the link leaves the pool, and every channel detaches. Dialer-side
// channels that completed their open handshake are handed to a resumer;
// acceptor-side ones park with a resume timer. With the transport shut
// down, channels fail terminally instead. Used where the read side is
// already dead (demux error, shutdown); a write-side failure uses
// failSendSide so inbound frames keep draining.
func (l *tcpLink) fail(err error) {
	if !l.beginFail() {
		return
	}
	l.conn.Close()
	l.finishFail(err)
}

// failSendSide marks the link failed after a write failure or injected
// disconnect, but only half-closes the socket (FIN): the peer drains
// everything already delivered before seeing EOF, and our own demux
// keeps routing the peer's in-flight frames until the peer closes. This
// is what makes the redial path lossless — no byte accepted by a Write
// is ever thrown away by either side's teardown.
func (l *tcpLink) failSendSide(err error) {
	if !l.beginFail() {
		return
	}
	l.halfClose()
	l.finishFail(err)
}

func (l *tcpLink) beginFail() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed {
		return false
	}
	l.failed = true
	return true
}

// finishFail detaches every channel and hands dialer-side survivors to
// a resumer. The channel map is left intact so a draining demux can
// still route late inbound frames.
func (l *tcpLink) finishFail(err error) {
	l.mu.Lock()
	chans := make([]*tcpChan, 0, len(l.chans))
	for _, ch := range l.chans {
		chans = append(chans, ch)
	}
	l.mu.Unlock()

	l.st.dropLink(l)
	stClosed := l.st.isClosed()

	var resume []*tcpChan
	for _, ch := range chans {
		ch.deliverPending(err)
		if stClosed {
			ch.signalEOF(errTCPClosed)
			continue
		}
		ch.detach(l)
		if l.dialerSide && ch.isOpened() && !ch.terminal() && ch.markResuming() {
			resume = append(resume, ch)
		}
	}
	if len(resume) > 0 {
		go l.st.resumeChans(l, resume)
	}
}

func (st *tcpState) dropLink(l *tcpLink) {
	st.mu.Lock()
	if st.links[l.addr] == l {
		delete(st.links, l.addr)
	}
	delete(st.allLinks, l)
	st.mu.Unlock()
}

// demux is the per-link read loop: it decodes frames and routes them by
// channel key. A read error — remote close, injected disconnect, corrupt
// or oversized frame — fails the link. Inbox delivery blocks when a
// receiver lags, which backpressures the whole link by design (TCP flow
// control then backpressures the sender).
func (l *tcpLink) demux() {
	defer close(l.readDone)
	defer l.conn.Close()
	for {
		f, err := readFrame(l.br, l.st.maxFrame(), l.st.rxPool)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				atomic.AddUint64(&l.st.ctr.protoErrs, 1)
			}
			l.fail(err)
			return
		}
		l.st.handleFrame(l, f)
	}
}

func (st *tcpState) handleFrame(l *tcpLink, f frame) {
	key := chanKey{dialer: f.dialer, id: f.chanID}
	switch f.op {
	case opOpen:
		st.handleOpen(l, key, f.payload)
	case opResume:
		st.handleResume(l, key)
	case opAccept, opResumeOK:
		if ch := l.lookup(key); ch != nil {
			ch.deliverPending(nil)
		}
	case opReject:
		if ch := l.lookup(key); ch != nil {
			l.remove(key)
			ch.deliverPending(fmt.Errorf("evpath: open %s rejected: %s", ch.contact, f.payload))
		}
	case opResumeFail:
		if ch := l.lookup(key); ch != nil {
			l.remove(key)
			ch.deliverPending(errResumeRejected)
		}
	case opData:
		m := st.lease(f.payload)
		ch := l.lookup(key)
		if ch == nil {
			m.put() // late frame for a channel closed on this side
			return
		}
		st.bumpRX(len(f.payload) + FrameOverhead)
		st.record(flight.KindRecv, "tcp.recv", ch.contact, len(f.payload)+FrameOverhead)
		select {
		case ch.inbox <- m:
		case <-ch.eof:
			m.put()
		}
	case opClose:
		var ch *tcpChan
		if ch = l.lookup(key); ch == nil {
			st.mu.Lock()
			ch = st.accepted[key]
			st.mu.Unlock()
		}
		if ch != nil {
			ch.signalEOF(nil)
			st.forgetChan(ch, l)
		}
	default:
		atomic.AddUint64(&st.ctr.protoErrs, 1)
	}
}

// handleOpen serves a dialer's channel-open: it waits briefly for the
// named local listener (epoch listeners can trail the remote dial by a
// beat), creates the acceptor-side channel, and delivers it through the
// listener's accept queue.
func (st *tcpState) handleOpen(l *tcpLink, key chanKey, payload []byte) {
	contact := string(payload)
	lst := st.net.waitListener(contact, st.config().AcceptWait)
	if lst == nil {
		l.sendFrame(opReject, key, []byte("no listener for "+contact)) //nolint:errcheck
		return
	}
	ch := st.newChan(key, contact, false, "")
	ch.setOpened()
	st.mu.Lock()
	st.accepted[key] = ch
	st.mu.Unlock()
	if err := l.attach(ch); err != nil {
		st.forgetChan(ch, nil)
		return
	}
	if !deliverAccept(lst, ch) {
		ch.signalEOF(errors.New("evpath: accept queue full"))
		st.forgetChan(ch, l)
		l.sendFrame(opReject, key, []byte("accept queue full")) //nolint:errcheck
		return
	}
	atomic.AddUint64(&st.ctr.opens, 1)
	l.sendFrame(opAccept, key, nil) //nolint:errcheck
}

// deliverAccept pushes a freshly opened channel into the listener's
// accept queue; false when the queue is full or the listener closed
// under us (the recover absorbs a send on its closed accept channel).
func deliverAccept(lst *Listener, ch *tcpChan) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	select {
	case lst.accept <- ch:
		return true
	default:
		return false
	}
}

// handleResume reattaches a parked acceptor-side channel to the dialer's
// fresh link. It first waits for the channel to detach from its failed
// link: detachment happens in the old demux's teardown, after every
// already-delivered frame was routed — so acknowledging the resume only
// then guarantees old-link and new-link messages cannot reorder.
func (st *tcpState) handleResume(l *tcpLink, key chanKey) {
	st.mu.Lock()
	ch := st.accepted[key]
	st.mu.Unlock()
	if ch == nil || ch.terminal() || !ch.waitDetached(st.config().OpenTimeout) {
		l.sendFrame(opResumeFail, key, nil) //nolint:errcheck
		return
	}
	if err := l.attach(ch); err != nil {
		return // link died already; dialer will retry elsewhere
	}
	atomic.AddUint64(&st.ctr.resumes, 1)
	l.sendFrame(opResumeOK, key, nil) //nolint:errcheck
}

func (st *tcpState) forgetChan(ch *tcpChan, l *tcpLink) {
	st.mu.Lock()
	if st.accepted[ch.key] == ch {
		delete(st.accepted, ch.key)
	}
	st.mu.Unlock()
	if l != nil {
		l.remove(ch.key)
	}
}

// ---------------------------------------------------------------------
// dialing

// dialTCP opens a logical channel to a remote contact: resolve the
// contact to a wire address, reuse or dial the pooled link, then run the
// opOpen handshake.
func (n *Net) dialTCP(contact string) (Conn, error) {
	st := n.tcpInit()
	st.mu.Lock()
	resolver := st.resolver
	st.mu.Unlock()
	if resolver == nil {
		return nil, fmt.Errorf("%w: %q (no local listener and no TCP resolver)", ErrPeerUnknown, contact)
	}
	addr, err := resolver(contact)
	if err != nil {
		return nil, fmt.Errorf("evpath: resolve %q: %w", contact, err)
	}
	link, err := st.getLink(addr)
	if err != nil {
		return nil, err
	}
	key := chanKey{dialer: st.dialerID, id: st.nextChan.Add(1)}
	ch := st.newChan(key, contact, true, addr)
	p := ch.armPending()
	if err := link.attach(ch); err != nil {
		return nil, err
	}
	if err := link.sendFrame(opOpen, key, []byte(contact)); err != nil {
		link.failSendSide(err)
		return nil, fmt.Errorf("evpath: open %q: %w", contact, err)
	}
	select {
	case err := <-p:
		if err != nil {
			ch.signalEOF(err)
			link.remove(key)
			return nil, err
		}
	case <-time.After(st.config().OpenTimeout):
		ch.signalEOF(errors.New("evpath: open handshake timeout"))
		link.remove(key)
		return nil, fmt.Errorf("evpath: open %q: handshake timeout", contact)
	}
	ch.setOpened()
	atomic.AddUint64(&st.ctr.opens, 1)
	return ch, nil
}

// getLink returns the pooled link for addr, dialing (singleflight) when
// absent or failed.
func (st *tcpState) getLink(addr string) (*tcpLink, error) {
	for {
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return nil, errTCPClosed
		}
		if l := st.links[addr]; l != nil && !l.isFailed() {
			st.mu.Unlock()
			return l, nil
		}
		if w := st.dialing[addr]; w != nil {
			st.mu.Unlock()
			<-w
			continue
		}
		w := make(chan struct{})
		st.dialing[addr] = w
		st.mu.Unlock()

		l, err := st.dialLink(addr)
		st.mu.Lock()
		delete(st.dialing, addr)
		if err == nil {
			st.links[addr] = l
		}
		st.mu.Unlock()
		close(w)
		if err != nil {
			return nil, err
		}
		go l.demux()
		return l, nil
	}
}

// dialLink makes the physical connection: scheme-prefixed addresses
// select TLS ("tls://") or plain TCP ("tcp://", or bare host:port).
func (st *tcpState) dialLink(addr string) (*tcpLink, error) {
	atomic.AddUint64(&st.ctr.dials, 1)
	if st.takeDialFault() {
		return nil, fmt.Errorf("injected dial failure for %s: %w", addr, ErrTransient)
	}
	cfg := st.config()
	host := addr
	useTLS := false
	switch {
	case strings.HasPrefix(addr, "tls://"):
		host, useTLS = addr[len("tls://"):], true
	case strings.HasPrefix(addr, "tcp://"):
		host = addr[len("tcp://"):]
	}
	conn, err := net.DialTimeout("tcp", host, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("evpath: dial %s: %w: %v", addr, ErrTransient, err)
	}
	if useTLS {
		st.mu.Lock()
		hook := st.clientTLS
		st.mu.Unlock()
		if hook == nil {
			conn.Close()
			return nil, fmt.Errorf("evpath: dial %s: TLS peer but no client TLS hook", addr)
		}
		tcfg := hook(addr)
		if tcfg == nil {
			conn.Close()
			return nil, fmt.Errorf("evpath: dial %s: client TLS hook returned nil config", addr)
		}
		tc := tls.Client(conn, tcfg)
		tc.SetDeadline(time.Now().Add(cfg.DialTimeout)) //nolint:errcheck
		if err := tc.Handshake(); err != nil {
			tc.Close()
			return nil, fmt.Errorf("evpath: tls handshake %s: %w: %v", addr, ErrTransient, err)
		}
		tc.SetDeadline(time.Time{}) //nolint:errcheck
		conn = tc
	}
	return st.newLink(conn, addr, true), nil
}

func (st *tcpState) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		atomic.AddUint64(&st.ctr.accepts, 1)
		l := st.newLink(conn, conn.RemoteAddr().String(), false)
		go l.demux()
	}
}

// resumeChans redials a failed link's address with exponential backoff
// and reattaches each surviving channel via the opResume handshake.
// Channels the peer no longer knows fail terminally; the rest fail after
// RedialAttempts exhausted attempts.
func (st *tcpState) resumeChans(failed *tcpLink, chans []*tcpChan) {
	defer func() {
		for _, ch := range chans {
			ch.clearResuming()
		}
	}()
	cfg := st.config()
	addr := failed.addr
	// Let the failed link finish draining inbound frames before resuming
	// anywhere else, so old-link and new-link deliveries cannot reorder.
	select {
	case <-failed.readDone:
	case <-time.After(cfg.ResumeTimeout):
	}
	pending := chans
	lastErr := error(errLinkFailed)
	backoff := cfg.RedialBase
	for attempt := 0; attempt < cfg.RedialAttempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > cfg.RedialMax {
				backoff = cfg.RedialMax
			}
		}
		if st.isClosed() {
			lastErr = errTCPClosed
			break
		}
		atomic.AddUint64(&st.ctr.redials, 1)
		link, err := st.getLink(addr)
		if err != nil {
			lastErr = err
			continue
		}
		var still []*tcpChan
		for _, ch := range pending {
			if ch.terminal() {
				continue
			}
			switch err := st.resumeOne(link, ch); {
			case err == nil:
				atomic.AddUint64(&st.ctr.resumes, 1)
			case errors.Is(err, errResumeRejected):
				ch.signalEOF(err)
			default:
				lastErr = err
				still = append(still, ch)
			}
		}
		pending = still
	}
	for _, ch := range pending {
		ch.signalEOF(fmt.Errorf("evpath: resume %s at %s: %w (last: %v)",
			ch.contact, addr, ErrTransient, lastErr))
	}
}

func (st *tcpState) resumeOne(link *tcpLink, ch *tcpChan) error {
	p := ch.armPending()
	if err := link.attach(ch); err != nil {
		return err
	}
	if err := link.sendFrame(opResume, ch.key, nil); err != nil {
		link.failSendSide(err)
		return err
	}
	select {
	case err := <-p:
		return err
	case <-time.After(st.config().OpenTimeout):
		return errors.New("evpath: resume handshake timeout")
	}
}

// ---------------------------------------------------------------------
// logical channels

// tcpChan is one logical Conn multiplexed on a link. It survives link
// failure: detached on the dialer side it waits for its resumer, on the
// acceptor side for the peer's opResume (bounded by ResumeTimeout).
type tcpChan struct {
	st      *tcpState
	key     chanKey
	contact string
	dialer  bool
	addr    string // redial target (dialer side)

	inbox chan *rxLease
	eof   chan struct{}

	mu          sync.Mutex
	cond        *sync.Cond
	link        *tcpLink
	pending     chan error // in-flight open/resume handshake response
	opened      bool       // open handshake completed (resume-eligible)
	resuming    bool
	localClosed bool
	done        bool // eof closed
	err         error
	resumeTimer *time.Timer
}

func (st *tcpState) newChan(key chanKey, contact string, dialer bool, addr string) *tcpChan {
	c := &tcpChan{
		st: st, key: key, contact: contact, dialer: dialer, addr: addr,
		inbox: make(chan *rxLease, st.config().InboxDepth),
		eof:   make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *tcpChan) Transport() string { return "tcp" }

// WireOverhead implements WireConn: per-message framing bytes.
func (c *tcpChan) WireOverhead() int { return FrameOverhead }

func (c *tcpChan) setLink(l *tcpLink) {
	c.mu.Lock()
	c.link = l
	if c.resumeTimer != nil {
		c.resumeTimer.Stop()
		c.resumeTimer = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// detach clears the channel's link if it still points at from; parked
// acceptor-side channels arm the resume deadline.
func (c *tcpChan) detach(from *tcpLink) {
	var armTimer bool
	c.mu.Lock()
	if c.link == from {
		c.link = nil
		c.cond.Broadcast()
		armTimer = !c.dialer && !c.done && !c.localClosed && c.resumeTimer == nil
	}
	c.mu.Unlock()
	if !armTimer {
		return
	}
	d := c.st.config().ResumeTimeout
	t := time.AfterFunc(d, func() {
		c.signalEOF(fmt.Errorf("evpath: channel %s: peer did not resume within %v", c.contact, d))
		c.st.forgetChan(c, nil)
	})
	c.mu.Lock()
	if c.link == nil && !c.done && !c.localClosed {
		c.resumeTimer = t
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	t.Stop()
}

func (c *tcpChan) setOpened() {
	c.mu.Lock()
	c.opened = true
	c.mu.Unlock()
}

func (c *tcpChan) isOpened() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opened
}

func (c *tcpChan) markResuming() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resuming {
		return false
	}
	c.resuming = true
	return true
}

func (c *tcpChan) clearResuming() {
	c.mu.Lock()
	c.resuming = false
	c.mu.Unlock()
}

func (c *tcpChan) terminal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done || c.localClosed
}

// waitDetached blocks up to d for the channel to leave its current link
// (true once detached or never attached; false on timeout or terminal).
func (c *tcpChan) waitDetached(d time.Duration) bool {
	deadline := time.Now().Add(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.done || c.localClosed {
			return false
		}
		if c.link == nil {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.AfterFunc(remain, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		c.cond.Wait()
		t.Stop()
	}
}

func (c *tcpChan) armPending() chan error {
	c.mu.Lock()
	p := make(chan error, 1)
	c.pending = p
	c.mu.Unlock()
	return p
}

func (c *tcpChan) deliverPending(err error) {
	c.mu.Lock()
	p := c.pending
	c.pending = nil
	c.mu.Unlock()
	if p != nil {
		p <- err
	}
}

// signalEOF marks the channel as delivering no further data: Recv drains
// the inbox then reports err (io.EOF when nil), Send waiters wake with
// the terminal error.
func (c *tcpChan) signalEOF(err error) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	c.err = err
	if c.resumeTimer != nil {
		c.resumeTimer.Stop()
		c.resumeTimer = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.eof)
}

// waitLink blocks until the channel is attached to a live link, the
// channel terminates, or it is closed locally.
func (c *tcpChan) waitLink() (*tcpLink, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.localClosed {
			return nil, io.ErrClosedPipe
		}
		if c.done {
			if c.err != nil {
				return nil, c.err
			}
			return nil, io.ErrClosedPipe
		}
		if l := c.link; l != nil && !l.isFailed() {
			return l, nil
		}
		c.cond.Wait()
	}
}

// Send delivers one message, transparently riding out link failures: a
// failed write detaches the channel, the resumer redials, and the same
// message is retried on the fresh link (it was never delivered — a
// write either errors or is fully accepted). Injected faults hook in
// here: latency sleeps, and the armed disconnect half-closes the link
// *before* writing, so the retry path is provably lossless.
func (c *tcpChan) Send(msg []byte) error {
	st := c.st
	if mf := st.maxFrame(); len(msg) > mf {
		return fmt.Errorf("evpath: send %d bytes exceeds max frame %d: %w", len(msg), mf, ErrFrameTooLarge)
	}
	for {
		l, err := c.waitLink()
		if err != nil {
			return err
		}
		if d := st.sendLatency(); d > 0 {
			time.Sleep(d)
		}
		if st.takeDrop() {
			l.failSendSide(fmt.Errorf("injected disconnect: %w", ErrTransient))
			continue
		}
		if err := l.sendFrame(opData, c.key, msg); err != nil {
			l.failSendSide(err)
			continue
		}
		st.bumpTX(len(msg) + FrameOverhead)
		st.record(flight.KindSend, "tcp.send", c.contact, len(msg)+FrameOverhead)
		return nil
	}
}

// rxLease is one received data message on loan from the receive pool.
// Leases are recycled along with their buffers, and release is bound to
// the lease once, when it is first made — so lending a frame out with a
// release func allocates nothing per frame.
type rxLease struct {
	st      *tcpState
	buf     []byte // the message; nil for an empty one
	release func() // == put
}

func (st *tcpState) lease(buf []byte) *rxLease {
	var m *rxLease
	st.leaseMu.Lock()
	if n := len(st.freeLeases); n > 0 {
		m, st.freeLeases = st.freeLeases[n-1], st.freeLeases[:n-1]
	}
	st.leaseMu.Unlock()
	if m == nil {
		m = &rxLease{st: st}
		m.release = m.put
	}
	m.buf = buf
	return m
}

func (st *tcpState) recycle(m *rxLease) {
	st.leaseMu.Lock()
	st.freeLeases = append(st.freeLeases, m)
	st.leaseMu.Unlock()
}

// put ends the loan: the buffer returns to the pool for the next frame
// and the lease to its free list. It must run exactly once per loan (the
// HandleConn release contract); a second call would recycle a lease
// someone else already holds.
func (m *rxLease) put() {
	if m.buf != nil {
		m.st.rxPool.Put(m.buf)
		m.buf = nil
	}
	m.st.recycle(m)
}

// keep turns the loan into a gift for a plain-Recv caller, who cannot say
// when it is done with the bytes: the buffer leaves the pool's accounting
// and is never reused.
func (m *rxLease) keep() []byte {
	buf := m.buf
	if buf != nil {
		m.st.rxPool.Forget(buf)
		m.buf = nil
	}
	m.st.recycle(m)
	return buf
}

// recv blocks for the next message; after the peer closes (or the
// channel fails terminally) it drains buffered messages, then reports
// io.EOF (clean close) or the terminal error.
func (c *tcpChan) recv() (*rxLease, error) {
	select {
	case m := <-c.inbox:
		return m, nil
	case <-c.eof:
		select {
		case m := <-c.inbox:
			return m, nil
		default:
		}
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = io.EOF
		}
		return nil, err
	}
}

// Recv returns the next message. The caller owns the returned bytes for
// good; they are never recycled.
func (c *tcpChan) Recv() ([]byte, error) {
	m, err := c.recv()
	if err != nil {
		return nil, err
	}
	return m.keep(), nil
}

// RecvHandle is the receive half of HandleConn (tcpChan deliberately has
// no SendHandle: Send is its only send entry). It lends the next message
// out of the receive pool: msg is valid until release is called, which
// the caller must do exactly once; payload is always nil.
func (c *tcpChan) RecvHandle() (msg, payload []byte, release func(), err error) {
	m, err := c.recv()
	if err != nil {
		return nil, nil, nil, err
	}
	return m.buf, nil, m.release, nil
}

// Close shuts the channel down both ways: a best-effort opClose tells
// the peer (its Recv drains then sees io.EOF), local waiters wake, and
// the channel leaves the resume tables.
func (c *tcpChan) Close() error {
	c.mu.Lock()
	if c.localClosed {
		c.mu.Unlock()
		return nil
	}
	c.localClosed = true
	l := c.link
	c.cond.Broadcast()
	c.mu.Unlock()
	if l != nil {
		l.sendFrame(opClose, c.key, nil) //nolint:errcheck
	}
	c.signalEOF(nil)
	c.st.forgetChan(c, l)
	return nil
}
