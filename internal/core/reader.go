package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"flexio/internal/dcplugin"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/flight"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
	"flexio/internal/shm"
)

// ErrEndOfStream reports that the writer closed the stream: the return
// the paper's analytics receive from read calls after the simulation
// closes the file.
var ErrEndOfStream = errors.New("core: end of stream")

// ReaderGroup is the analytics-program side of a stream: N reader ranks
// plus a coordinator (rank 0) that performed the directory lookup. The
// control-plane half (handshake, Reconfigure, teardown signalling) lives
// in controlplane.go; this file is the data plane.
type ReaderGroup struct {
	Stream   string
	NReaders int
	// key is the tenant-qualified directory key (directory.Qualify of the
	// tenant and Stream) under which the stream and its epoch-qualified
	// data contacts resolve.
	key     string
	quota   TenantQuota
	net     *evpath.Net
	dir     directory.Directory
	mon     *monitor.Monitor
	journal *flight.Journal // attached via SetJournal; nil = off
	sess    *session

	readers   []*Reader
	coordConn evpath.Conn
	listeners []*evpath.Listener // current epoch's data listeners

	mu         sync.Mutex
	cond       *sync.Cond
	selSent    bool
	enteredCnt int
	arraySel   map[string][]ndarray.Box // var -> per-reader box
	pgSel      [][]int64                // per-reader claimed writer ranks
	steps      map[int64]*readerStep
	writerCnt  map[int]int // writers seen per reader (from hello)
	nWriters   int
	// Connection accounting is epoch-scoped: a retiring epoch's pumps
	// must not feed End-of-Stream detection for the current one.
	dataEpoch uint64
	connCnt   map[uint64]int
	eofCnt    map[uint64]int
	dataConns []epochConn
	plugins   []pluginEntry
	// deployed tracks plug-ins shipped into the writers' address space so
	// a reconfiguration can re-ship them to the new peer set.
	deployed   []dcplugin.Plugin
	pluginAcks map[string]chan error
	nextAnon   int

	// Reconfiguration state: the pending ack channel, the in-progress
	// flag, and steps the writer flushed under the old regime that the
	// new ranks replay from buffered pieces.
	reconfiguring bool
	reconfigAck   chan reconfigAckMsg
	replay        map[int64]*replayStep

	// Unpack plan cache and assembly-buffer pool: selections are fixed
	// per epoch, so the scatter geometry of each arriving piece region is
	// computed once and replayed every step; assembly buffers are
	// recycled through asmPool when the application returns them via
	// ReleaseArray.
	upPlans map[upKey][]upEntry
	asmPool *shm.BufferPool

	writerReport     *monitor.Report
	writerReportStep int64
	closeOnce        sync.Once
}

// epochConn tags an accepted data connection with its session epoch so a
// reconfiguration can retire exactly the old epoch's connections.
type epochConn struct {
	epoch uint64
	conn  evpath.Conn
}

type pluginEntry struct {
	name string
	fn   evpath.FilterFunc
}

// readerStep accumulates arriving pieces for one timestep.
type readerStep struct {
	step        int64
	perReader   map[int]map[string][]piece // reader -> var -> pieces
	doneWriters map[int]map[int]bool       // reader -> set of writers done
}

// replayStep is a step the writer flushed to the old rank layout during
// a reconfiguration: the union of every old rank's pieces, re-sliced for
// the new selections at read time. left counts new ranks yet to consume.
type replayStep struct {
	arrays  map[string][]piece
	scalars map[string]piece
	pgs     map[string]map[int][]byte // var -> writer rank -> payload
	left    int
}

type piece struct {
	writer   int
	kind     VarKind
	elemSize int
	box      ndarray.Box // overlap region (GlobalArrayVar)
	data     []byte
	// release is non-nil when data references a buffer on loan: the
	// writer's pool buffer (same-node zero-copy hand-off) or the wire
	// transport's receive buffer. It must be called exactly once when the
	// piece's bytes are no longer needed — EndStep for consumed steps,
	// snapshotReplay after cloning — returning the buffer to its pool.
	release func()
}

// Reader is one reader rank's handle.
type Reader struct {
	g        *ReaderGroup
	Rank     int
	curStep  int64
	nextStep int64
	inStep   bool
	inReplay bool
	entered  bool
}

// ReaderOptions configures the analytics side of a stream. The zero
// value is the legacy single-tenant, unlimited-quota behavior.
type ReaderOptions struct {
	// Tenant scopes the stream lookup and every data contact under the
	// tenant namespace; must match the writer side's Options.Tenant.
	Tenant string
	// Quota bounds the group's rank count, at construction and at every
	// Reconfigure (MaxRanks; the flow-control fields act writer-side).
	Quota TenantQuota
}

// NewReaderGroup opens the named stream: looks it up in the directory,
// connects to the writer coordinator, and starts per-rank listeners for
// the writers' data connections. mon may be nil.
func NewReaderGroup(net *evpath.Net, dir directory.Directory, stream string, nReaders int, mon *monitor.Monitor) (*ReaderGroup, error) {
	return NewReaderGroupOpts(net, dir, stream, nReaders, ReaderOptions{}, mon)
}

// NewReaderGroupOpts is NewReaderGroup under a tenant namespace and
// quota.
func NewReaderGroupOpts(net *evpath.Net, dir directory.Directory, stream string, nReaders int, ropts ReaderOptions, mon *monitor.Monitor) (*ReaderGroup, error) {
	if nReaders <= 0 {
		return nil, fmt.Errorf("core: reader group needs at least 1 rank")
	}
	if err := directory.ValidateTenant(ropts.Tenant); err != nil {
		return nil, err
	}
	if ropts.Quota.MaxRanks > 0 && nReaders > ropts.Quota.MaxRanks {
		return nil, fmt.Errorf("%w: %d reader ranks over MaxRanks %d", ErrOverQuota, nReaders, ropts.Quota.MaxRanks)
	}
	key := directory.Qualify(ropts.Tenant, stream)
	contact, err := dir.WaitLookup(key, 30*time.Second)
	if err != nil {
		return nil, err
	}
	g := &ReaderGroup{
		Stream:    stream,
		NReaders:  nReaders,
		key:       key,
		quota:     ropts.Quota,
		net:       net,
		dir:       dir,
		mon:       mon,
		sess:      newSession("reader", mon),
		arraySel:  make(map[string][]ndarray.Box),
		pgSel:     make([][]int64, nReaders),
		steps:     make(map[int64]*readerStep),
		writerCnt: make(map[int]int),
		dataEpoch: 1,
		connCnt:   make(map[uint64]int),
		eofCnt:    make(map[uint64]int),
		replay:    make(map[int64]*replayStep),
		upPlans:   make(map[upKey][]upEntry),
		asmPool:   shm.NewBufferPool(0),
	}
	g.cond = sync.NewCond(&g.mu)
	// Per-rank data listeners must exist before the writers dial. Names
	// are epoch-qualified under the tenant namespace; the first
	// configuration is epoch 1.
	for r := 0; r < nReaders; r++ {
		l, err := net.Listen(dataContact(key, 1, r))
		if err != nil {
			return nil, err
		}
		g.listeners = append(g.listeners, l)
		go g.acceptLoop(1, r, l)
	}
	conn, err := net.Dial(contact, evpath.ChanTransport, 0, 0)
	if err != nil {
		return nil, err
	}
	g.coordConn = conn
	g.sess.tryTransition(StateHandshaking) //nolint:errcheck
	go g.coordPump()
	g.readers = make([]*Reader, nReaders)
	for i := range g.readers {
		g.readers[i] = &Reader{g: g, Rank: i}
	}
	return g, nil
}

// Reader returns rank r's handle. After a Reconfigure the group has new
// handles; fetch them again.
func (g *ReaderGroup) Reader(r int) *Reader {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.readers[r]
}

// InstallPlugin adds a data-conditioning filter applied (in order) to
// every arriving data event on the reader side (plug-in execution in the
// analytics' address space). For deployment into the simulation's address
// space see DeployPluginToWriters.
func (g *ReaderGroup) InstallPlugin(fn evpath.FilterFunc) {
	g.mu.Lock()
	name := fmt.Sprintf("anon-%d", g.nextAnon)
	g.nextAnon++
	g.plugins = append(g.plugins, pluginEntry{name: name, fn: fn})
	g.mu.Unlock()
}

// InstallNamedPlugin is InstallPlugin with a caller-chosen name so the
// filter can later be removed or migrated.
func (g *ReaderGroup) InstallNamedPlugin(name string, fn evpath.FilterFunc) {
	g.mu.Lock()
	g.plugins = append(g.plugins, pluginEntry{name: name, fn: fn})
	g.mu.Unlock()
}

func (g *ReaderGroup) acceptLoop(epoch uint64, r int, l *evpath.Listener) {
	for {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		g.mu.Lock()
		g.connCnt[epoch]++
		g.dataConns = append(g.dataConns, epochConn{epoch: epoch, conn: conn})
		g.mu.Unlock()
		go g.dataPump(epoch, r, conn)
	}
}

// handleReceiver is the receive half of evpath.HandleConn, which is all
// dataPump needs of it: a connection may lend out what it received until
// a release callback runs, whether or not it can also send by handle.
type handleReceiver interface {
	RecvHandle() (msg []byte, payload []byte, release func(), err error)
}

func (g *ReaderGroup) dataPump(epoch uint64, r int, conn evpath.Conn) {
	// Two kinds of connection deliver by reference. Same-node ones pass
	// array payloads by handle: the header is received by copy, the payload
	// stays in the writer's pool buffer until the release callback hands it
	// back. The wire transport lends the whole message out of its receive
	// pool (payload nil, so ev.Data aliases msg) until release recycles the
	// buffer for a later frame. Either way release travels with the piece.
	hc, _ := conn.(handleReceiver)
	for {
		var buf, payload []byte
		var release func()
		var err error
		if hc != nil {
			buf, payload, release, err = hc.RecvHandle()
		} else {
			buf, err = conn.Recv()
		}
		if err != nil {
			g.mu.Lock()
			g.eofCnt[epoch]++
			g.cond.Broadcast()
			g.mu.Unlock()
			return
		}
		ev, err := evpath.DecodeEvent(buf)
		if err != nil {
			if release != nil {
				release()
			}
			continue
		}
		if payload != nil {
			// buf was the meta-only header; reattaching the referenced
			// payload reconstructs the event the writer encoded.
			ev.Data = payload
		}
		g.routeEvent(r, ev, release)
	}
}

// routeEvent dispatches one arriving event. release, when non-nil, owns
// the hand-off of ev.Data back to where it came from (the writer's pool,
// the wire transport's receive pool); every path must either store it
// with the piece or invoke it.
func (g *ReaderGroup) routeEvent(r int, ev *evpath.Event, release func()) {
	kind, _ := ev.Meta.GetString("kind")
	switch kind {
	case "hello":
		if release != nil {
			release()
		}
		w, _ := ev.Meta.GetInt("writer")
		nw, _ := ev.Meta.GetInt("nwriters")
		g.mu.Lock()
		g.writerCnt[r]++
		if int(nw) > g.nWriters {
			g.nWriters = int(nw)
		}
		if int(w)+1 > g.nWriters {
			g.nWriters = int(w) + 1
		}
		g.cond.Broadcast()
		g.mu.Unlock()
	case msgBatch:
		// The writer never hands off batch frames, but a foreign producer
		// might: detach from the referenced buffer before slicing
		// sub-events out of it, since their Data would alias it.
		if release != nil {
			ev.Data = append([]byte(nil), ev.Data...)
			release()
		}
		// Unpack sub-events: length-prefixed frames in the payload.
		data := ev.Data
		for len(data) >= 8 {
			n := getLen(data[:8])
			data = data[8:]
			if n > len(data) {
				return
			}
			sub, err := evpath.DecodeEvent(data[:n])
			data = data[n:]
			if err != nil {
				return
			}
			g.routeEvent(r, sub, nil)
		}
	case msgData:
		g.acceptData(r, ev, release)
	case msgStepDone:
		if release != nil {
			release()
		}
		step, _ := ev.Meta.GetInt("step")
		w, _ := ev.Meta.GetInt("writer")
		g.mu.Lock()
		st := g.step(step)
		if st.doneWriters[r] == nil {
			st.doneWriters[r] = make(map[int]bool)
		}
		st.doneWriters[r][int(w)] = true
		g.cond.Broadcast()
		g.mu.Unlock()
	default:
		if release != nil {
			release()
		}
	}
}

// acceptData runs the installed plug-ins and stores the piece. release
// (non-nil for zero-copy deliveries) is stored with the piece while
// ev.Data still references the writer's buffer; if a plug-in drops the
// event or substitutes its payload, the buffer goes back to the writer
// here instead.
func (g *ReaderGroup) acceptData(r int, ev *evpath.Event, release func()) {
	orig := ev.Data
	g.mu.Lock()
	plugins := g.plugins
	g.mu.Unlock()
	if len(plugins) > 0 {
		// The step is read before the plug-in chain runs so the dc.plugin
		// event correlates with the writer-side events of the same
		// timestep even when a filter rewrites or drops the event.
		preStep, _ := ev.Meta.GetInt("step")
		plug := g.journal.Begin(observer(g.mon), flight.Event{
			Kind: flight.KindCompute, Point: "dc.plugin", Scope: g.key,
			Rank: r, Step: preStep, Epoch: g.sess.Epoch(),
		})
		defer plug.End()
	}
	for _, p := range plugins {
		out, err := p.fn(ev)
		if err != nil || out == nil {
			if g.mon != nil && err == nil {
				g.mon.Incr("dc.dropped", 1)
			}
			if release != nil {
				release()
			}
			return
		}
		ev = out
	}
	if release != nil && !sameBytes(ev.Data, orig) {
		// A plug-in rewrote the payload: the stored piece owns the
		// plug-in's bytes, the writer gets its buffer back now.
		release()
		release = nil
	}

	step, _ := ev.Meta.GetInt("step")
	name, _ := ev.Meta.GetString("var")
	vk, _ := ev.Meta.GetInt("varkind")
	es, _ := ev.Meta.GetInt("elemsize")
	w, _ := ev.Meta.GetInt("writer")
	p := piece{writer: int(w), kind: VarKind(vk), elemSize: int(es), data: ev.Data, release: release}
	if VarKind(vk) == GlobalArrayVar {
		nd, _ := ev.Meta.GetInt("ndims")
		flat, _ := ev.Meta.GetInts("box")
		boxes, err := decodeBoxes(flat, int(nd), 1)
		if err != nil {
			if release != nil {
				release()
			}
			return
		}
		p.box = boxes[0]
	}
	g.mu.Lock()
	st := g.step(step)
	if st.perReader[r] == nil {
		st.perReader[r] = make(map[string][]piece)
	}
	st.perReader[r][name] = append(st.perReader[r][name], p)
	g.cond.Broadcast()
	g.mu.Unlock()
	if g.mon != nil {
		g.mon.Incr("data.msgs.recv", 1)
		g.mon.AddVolume("data.bytes.recv", int64(len(ev.Data)))
	}
	if j := g.journal; j != nil {
		// The channel mirrors the writer-side send event's "w<M>>r<N>"
		// string: after a cross-process journal merge this pairing is the
		// only surviving recv↔send join key (event IDs get remapped).
		j.Record(flight.Event{
			Kind: flight.KindRecv, Point: "reader.accept",
			Channel: fmt.Sprintf("w%d>r%d", w, r), Scope: g.key,
			Rank: r, Step: step, Epoch: g.sess.Epoch(),
			T: j.Now(), Bytes: int64(len(ev.Data)),
		})
	}
}

// step returns (creating if needed) the state for a timestep. Caller
// holds g.mu.
func (g *ReaderGroup) step(step int64) *readerStep {
	st, ok := g.steps[step]
	if !ok {
		st = &readerStep{
			step:        step,
			perReader:   make(map[int]map[string][]piece),
			doneWriters: make(map[int]map[int]bool),
		}
		g.steps[step] = st
	}
	return st
}

// snapshotReplay captures one old-regime step for replay: the union of
// the old ranks' buffered pieces, to be re-sliced under the new
// selections. Caller holds g.mu.
func snapshotReplay(st *readerStep, oldN, newN int) *replayStep {
	rs := &replayStep{
		arrays:  make(map[string][]piece),
		scalars: make(map[string]piece),
		pgs:     make(map[string]map[int][]byte),
		left:    newN,
	}
	if st == nil {
		return rs
	}
	for r := 0; r < oldN; r++ {
		for name, pieces := range st.perReader[r] {
			for i := range pieces {
				if pieces[i].release != nil {
					// Replay outlives the current epoch's connections; a
					// zero-copy piece must not pin the writer's buffer that
					// long. Snapshot the bytes and return the buffer now.
					pieces[i].data = append([]byte(nil), pieces[i].data...)
					pieces[i].release()
					pieces[i].release = nil
				}
				p := pieces[i]
				switch p.kind {
				case GlobalArrayVar:
					rs.arrays[name] = append(rs.arrays[name], p)
				case ScalarVar:
					if _, have := rs.scalars[name]; !have {
						rs.scalars[name] = p
					}
				case ProcessGroupVar:
					if rs.pgs[name] == nil {
						rs.pgs[name] = make(map[int][]byte)
					}
					rs.pgs[name][p.writer] = p.data
				}
			}
		}
	}
	return rs
}

// SelectArray declares that this reader wants the given region of a
// global array. Must be called before the rank's first BeginStep. To
// change selections later, use ReaderGroup.Reconfigure.
func (r *Reader) SelectArray(name string, box ndarray.Box) error {
	g := r.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.selSent {
		return fmt.Errorf("core: selections are fixed once reading starts (use Reconfigure)")
	}
	sel, ok := g.arraySel[name]
	if !ok {
		sel = make([]ndarray.Box, g.NReaders)
		g.arraySel[name] = sel
	}
	sel[r.Rank] = box
	return nil
}

// SelectProcessGroups declares the writer ranks whose process groups this
// reader consumes.
func (r *Reader) SelectProcessGroups(writers []int) error {
	g := r.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.selSent {
		return fmt.Errorf("core: selections are fixed once reading starts (use Reconfigure)")
	}
	ws := make([]int64, len(writers))
	for i, w := range writers {
		ws[i] = int64(w)
	}
	g.pgSel[r.Rank] = ws
	return nil
}

// BeginStep blocks until the next timestep is fully delivered to this
// rank, returning its step index. ok=false signals End-of-Stream.
// Replayed steps (flushed under the old regime during a reconfiguration)
// are served before live ones, preserving step order exactly.
func (r *Reader) BeginStep() (step int64, ok bool) {
	g := r.g
	g.mu.Lock()
	// First BeginStep is a group rendezvous: selections are sent to the
	// writer coordinator only once every reader rank has entered, so no
	// rank's SelectArray/SelectProcessGroups call can be missed.
	if !r.entered {
		r.entered = true
		g.enteredCnt++
		if g.enteredCnt == g.NReaders {
			g.selSent = true
			g.mu.Unlock()
			if err := g.sendSelections(); err != nil {
				return 0, false
			}
			g.mu.Lock()
			g.cond.Broadcast()
		} else {
			for !g.selSent {
				g.cond.Wait()
			}
		}
	}
	defer g.mu.Unlock()
	want := r.nextStep
	for {
		if _, isReplay := g.replay[want]; isReplay {
			r.curStep = want
			r.inStep = true
			r.inReplay = true
			r.nextStep = want + 1
			return want, true
		}
		if st, okS := g.steps[want]; okS && g.nWriters > 0 && len(st.doneWriters[r.Rank]) == g.nWriters {
			r.curStep = want
			r.inStep = true
			r.nextStep = want + 1
			return want, true
		}
		// EOS: every data connection of the current epoch for this rank
		// saw EOF and the step never completed.
		cur := g.dataEpoch
		if g.connCnt[cur] > 0 && g.eofCnt[cur] >= g.connCnt[cur] {
			if st, okS := g.steps[want]; okS && g.nWriters > 0 && len(st.doneWriters[r.Rank]) == g.nWriters {
				continue
			}
			return 0, false
		}
		g.cond.Wait()
	}
}

// parallelUnpackBytes is the minimum total payload size before ReadArray
// fans piece unpacking out to the worker pool; below it the
// orchestration overhead outweighs the copies.
const parallelUnpackBytes = 256 << 10

// ReadArray assembles this reader's declared selection of a global array
// for the current step. It returns the packed bytes (row-major over the
// selection box) plus the box itself. The returned buffer comes from the
// group's assembly pool; the application may hand it back with
// ReleaseArray once done to make steady-state reads allocation-free, or
// simply drop it for the garbage collector.
func (r *Reader) ReadArray(name string) ([]byte, ndarray.Box, error) {
	g := r.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if !r.inStep {
		return nil, ndarray.Box{}, fmt.Errorf("core: ReadArray outside BeginStep/EndStep")
	}
	sel, ok := g.arraySel[name]
	if !ok || sel[r.Rank].Empty() {
		return nil, ndarray.Box{}, fmt.Errorf("core: reader %d did not select %q", r.Rank, name)
	}
	box := sel[r.Rank]
	asm := g.journal.Begin(observer(g.mon), flight.Event{
		Kind: flight.KindCompute, Point: "reader.assemble", Scope: g.key,
		Rank: r.Rank, Step: r.curStep, Epoch: g.sess.Epoch(),
	})
	defer asm.End()
	if r.inReplay {
		return r.readReplayArray(name, box)
	}
	st := g.steps[r.curStep]
	var ps []piece
	if st != nil && st.perReader[r.Rank] != nil {
		ps = st.perReader[r.Rank][name]
	}
	var elemSize int
	for _, p := range ps {
		elemSize = p.elemSize
	}
	if elemSize == 0 {
		// No data arrived for the selection (writers had no overlap).
		return nil, box, fmt.Errorf("core: no data for %q selection %v at step %d", name, box, r.curStep)
	}
	need := box.NumElements() * int64(elemSize)
	out, err := g.asmPool.Get(int(need))
	if err != nil {
		return nil, box, err
	}
	// Pooled buffers carry stale bytes; gaps the pieces don't cover must
	// read as zero, like a freshly allocated buffer.
	for i := range out {
		out[i] = 0
	}
	// Resolve every piece's cached scatter plan first, then execute —
	// concurrently when the pieces are big enough and provably disjoint.
	plans := make([]*ndarray.Plan, len(ps))
	var total int64
	for i := range ps {
		plans[i], err = g.unpackPlanFor(name, r.Rank, box, ps[i].box, elemSize)
		if err != nil {
			g.asmPool.Put(out)
			return nil, box, err
		}
		total += plans[i].Bytes()
	}
	if len(ps) >= 2 && total >= parallelUnpackBytes && disjointRegions(ps) {
		err = parallelFor(len(ps), 0, func(i int) error {
			return plans[i].Execute(out, ps[i].data)
		})
	} else {
		for i := range ps {
			if err = plans[i].Execute(out, ps[i].data); err != nil {
				break
			}
		}
	}
	if err != nil {
		g.asmPool.Put(out)
		return nil, box, err
	}
	return out, box, nil
}

// readReplayArray assembles a replayed step's selection directly from
// the buffered old-regime pieces: each piece's overlap with the new
// selection box is copied box-to-box (no intermediate packed form).
// Caller holds g.mu.
func (r *Reader) readReplayArray(name string, box ndarray.Box) ([]byte, ndarray.Box, error) {
	g := r.g
	rs := g.replay[r.curStep]
	if rs == nil {
		return nil, box, fmt.Errorf("core: replay state missing for step %d", r.curStep)
	}
	ps := rs.arrays[name]
	var elemSize int
	for _, p := range ps {
		elemSize = p.elemSize
	}
	if elemSize == 0 {
		return nil, box, fmt.Errorf("core: no replay data for %q at step %d", name, r.curStep)
	}
	need := box.NumElements() * int64(elemSize)
	out, err := g.asmPool.Get(int(need))
	if err != nil {
		return nil, box, err
	}
	for i := range out {
		out[i] = 0
	}
	for _, p := range ps {
		ov, has := p.box.Intersect(box)
		if !has {
			continue
		}
		if err := ndarray.CopyRegion(out, p.data, box, p.box, ov, elemSize); err != nil {
			g.asmPool.Put(out)
			return nil, box, err
		}
	}
	return out, box, nil
}

// ReleaseArray returns a buffer obtained from ReadArray to the assembly
// pool for reuse by a later step. The caller must not touch the buffer
// afterwards. Passing any other slice is a misuse that at worst parks
// the slice on a never-matching free list.
func (r *Reader) ReleaseArray(buf []byte) {
	if buf == nil {
		return
	}
	r.g.asmPool.Put(buf)
}

// ReadScalar returns a scalar variable's bytes for the current step. The
// bytes are valid until this rank's EndStep (they may sit in a transport
// buffer that EndStep recycles); copy what must outlive the step.
func (r *Reader) ReadScalar(name string) ([]byte, error) {
	g := r.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if !r.inStep {
		return nil, fmt.Errorf("core: ReadScalar outside BeginStep/EndStep")
	}
	if r.inReplay {
		if rs := g.replay[r.curStep]; rs != nil {
			if p, ok := rs.scalars[name]; ok {
				return p.data, nil
			}
		}
		return nil, fmt.Errorf("core: no scalar %q at step %d", name, r.curStep)
	}
	st := g.steps[r.curStep]
	if st == nil || st.perReader[r.Rank] == nil {
		return nil, fmt.Errorf("core: no scalar %q at step %d", name, r.curStep)
	}
	for _, p := range st.perReader[r.Rank][name] {
		if p.kind == ScalarVar {
			return p.data, nil
		}
	}
	return nil, fmt.Errorf("core: no scalar %q at step %d", name, r.curStep)
}

// ReadProcessGroups returns the process-group payloads this reader
// claimed, keyed by writer rank, for one variable. The payloads are valid
// until this rank's EndStep — like the array pieces ReadArray assembles
// from, they may sit in transport buffers that EndStep recycles; copy what
// must outlive the step.
func (r *Reader) ReadProcessGroups(name string) (map[int][]byte, error) {
	g := r.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if !r.inStep {
		return nil, fmt.Errorf("core: ReadProcessGroups outside BeginStep/EndStep")
	}
	out := make(map[int][]byte)
	if r.inReplay {
		rs := g.replay[r.curStep]
		if rs == nil {
			return out, nil
		}
		for _, w := range g.pgSel[r.Rank] {
			if data, ok := rs.pgs[name][int(w)]; ok {
				out[int(w)] = data
			}
		}
		return out, nil
	}
	st := g.steps[r.curStep]
	if st == nil || st.perReader[r.Rank] == nil {
		return out, nil
	}
	for _, p := range st.perReader[r.Rank][name] {
		if p.kind == ProcessGroupVar {
			out[p.writer] = p.data
		}
	}
	return out, nil
}

// EndStep releases the current step's buffered pieces for this rank:
// everything ReadScalar and ReadProcessGroups returned for the step stops
// being valid here.
func (r *Reader) EndStep() error {
	g := r.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if !r.inStep {
		return fmt.Errorf("core: EndStep outside a step")
	}
	r.inStep = false
	if r.inReplay {
		r.inReplay = false
		if rs := g.replay[r.curStep]; rs != nil {
			rs.left--
			if rs.left <= 0 {
				delete(g.replay, r.curStep)
			}
		}
		return nil
	}
	st := g.steps[r.curStep]
	if st != nil {
		// Hand payloads on loan back to their pools: the step's pieces —
		// unpacked by ReadArray or never read at all — are dead once the
		// rank leaves the step.
		for _, pieces := range st.perReader[r.Rank] {
			for i := range pieces {
				if pieces[i].release != nil {
					pieces[i].release()
					pieces[i].release = nil
				}
			}
		}
		delete(st.perReader, r.Rank)
		// Drop the whole step once every rank has consumed it.
		if len(st.perReader) == 0 {
			allDone := true
			for rr := 0; rr < g.NReaders; rr++ {
				if len(st.doneWriters[rr]) != g.nWriters {
					allDone = false
					break
				}
			}
			consumed := true
			for rr := 0; rr < g.NReaders; rr++ {
				if g.readers[rr].nextStep <= st.step {
					consumed = false
					break
				}
			}
			if allDone && consumed {
				delete(g.steps, st.step)
			}
		}
	}
	return nil
}

// Close hangs up the reader side: a session-closed notice travels to the
// writer over the coordinator connection (so the writer can tear its
// data plane down instead of leaving connections and goroutines
// dangling), then every local connection and listener is closed.
func (g *ReaderGroup) Close() error {
	g.closeOnce.Do(func() {
		g.sess.tryTransition(StateDraining) //nolint:errcheck
		if g.coordConn != nil {
			if buf, err := evpath.EncodeEvent(&evpath.Event{
				Meta: evpath.Record{"kind": msgSessionClosed},
			}); err == nil {
				g.coordConn.Send(buf) //nolint:errcheck // Recv-failure path covers a lost notice
			}
		}
		for _, l := range g.listeners {
			l.Close()
		}
		g.mu.Lock()
		conns := make([]evpath.Conn, 0, len(g.dataConns))
		for _, ec := range g.dataConns {
			conns = append(conns, ec.conn)
		}
		g.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		if g.coordConn != nil {
			g.coordConn.Close()
		}
		g.sess.tryTransition(StateClosed) //nolint:errcheck
	})
	return nil
}
