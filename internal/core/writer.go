package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/flight"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
	"flexio/internal/shm"
)

// ErrSessionClosed reports that the peer side hung up the session
// mid-stream (an orderly session-closed notice or a dead coordinator
// connection); further steps cannot be moved.
var ErrSessionClosed = errors.New("core: session closed by peer")

// WriterGroup is the writer-program side of a stream: M writer ranks plus
// an elected coordinator (rank 0). In stream mode, "creating a file"
// registers the stream name with the directory server; the analytics that
// "opens the named file" is connected underneath by the transport
// (Section II.B). The control-plane half (handshake, reconfiguration,
// teardown) lives in controlplane.go; this file is the data plane.
type WriterGroup struct {
	Stream   string
	NWriters int
	// key is the tenant-qualified directory key (directory.Qualify of
	// Options.Tenant and Stream): what the coordinator contact and every
	// epoch-qualified data contact register under.
	key     string
	opts    Options
	net     *evpath.Net
	dir     directory.Directory
	mon     *monitor.Monitor
	credits *creditWindow
	journal *flight.Journal // attached via SetJournal; nil = off
	sess    *session

	writers []*Writer

	coordListener *evpath.Listener
	coordConn     evpath.Conn

	selMu    sync.Mutex
	selCond  *sync.Cond
	selReady bool
	sel      readerSelections
	selErr   error
	// Reconfiguration and teardown state (guarded by selMu): a pending
	// reconfig request parked by the control plane until the next step
	// boundary, and the peer/self closed flags.
	pendingReconfig *reconfigRequest
	readerClosed    bool
	closed          bool

	nReaders int
	// curTransport maps pairs to transports for the *current* epoch. It
	// starts as Options.Transport and is replaced when a reconfiguration
	// ships a new node placement. Touched only on the flush goroutine.
	curTransport func(w, r int) (evpath.TransportKind, int, int)

	// connMu guards the connection tables' slice headers; the conns of
	// the current epoch are in conns, earlier epochs' rows retire into
	// retired until the reader (or Close) hangs them up.
	connMu  sync.Mutex
	conns   [][]evpath.Conn // [writer][reader], nil where never used
	retired [][]evpath.Conn

	plugins writerPlugins // codelets deployed from the reader side

	stepMu      sync.Mutex
	open        map[int64]*pendingStep // steps with outstanding deposits
	asyncCh     chan *pendingStep
	asyncDone   chan struct{}
	asyncErr    error
	asyncErrMu  sync.Mutex
	lastDist    map[string][]int64 // var -> writer boxes last handshaken (appendBox encoding)
	curDist     map[string][]int64 // var -> this flush's writer boxes; storage reused by every flush
	sentAnyDist bool

	// Redistribution plan cache: precompiled pack schedules per
	// (variable, writer rank), invalidated by the session epoch or a
	// changed writer box. payloadPool recycles packed piece payloads and
	// deposited variable copies across timesteps.
	planMu      sync.Mutex
	plans       map[varPlanKey]*varPlanEntry
	payloadPool *shm.BufferPool

	closeOnce sync.Once
}

// Writer is one writer rank's handle.
type Writer struct {
	g        *WriterGroup
	Rank     int
	cur      *pendingStep // step this rank currently has open
	lastStep int64        // last step this rank completed (for ordering)
	begun    bool
}

// pendingStep accumulates one timestep's variables from all ranks.
type pendingStep struct {
	step     int64
	vars     map[int][]varData // writer rank -> written vars (in order)
	deposits int
	// staged counts payload bytes holding tenant credits; they return to
	// the credit window when the step's flush retires.
	staged int64
	done   chan struct{}
	err    error
}

// varData is one deposited variable: buf is the pool buffer holding the
// copy of the caller's bytes behind headerRoom spare bytes.
type varData struct {
	meta VarMeta
	buf  []byte
}

// data is the deposited copy itself.
func (v *varData) data() []byte { return v.buf[headerRoom:] }

// headerRoom is the spare space in front of every pooled payload (a
// deposit in Write, a packed piece in piecesFor). sendPiece writes an
// event's encoded metadata right-aligned into it, so the framed message
// exists contiguously without the payload having been copied again. 256
// bytes hold the header of any variable name up to ~170 bytes; a longer
// one falls back to the concatenating encode. The room is part of the
// pooled buffer — drawn as Get(headerRoom+n), payload at buf[headerRoom:]
// — so what returns to the pool is always the whole buffer (Put keys on
// capacity), and a payload of exactly a power of two now draws from the
// next size class.
const headerRoom = 256

// readerSelections is the reader-side distribution received during the
// handshake (Step 2 from the peer's perspective).
type readerSelections struct {
	nReaders int
	// gen is the session epoch the selections belong to; the plan cache
	// keys its validity on it, so a re-selection or reconfiguration
	// invalidates every cached plan.
	gen uint64
	// arrays[var][reader] is the reader's requested box (empty box = not
	// selected by that reader).
	arrays map[string][]ndarray.Box
	// decomps wraps each variable's reader boxes as a Decomposition so the
	// mapper's interval index is built once per selection generation and
	// shared by every writer rank's plan build. Populated by
	// decodeReaderSelections; may be nil for hand-built selections.
	decomps map[string]*ndarray.Decomposition
	// pgClaims[writerRank] lists reader ranks consuming that writer's
	// process groups.
	pgClaims map[int][]int
}

// NewWriterGroup creates the writer side of a stream and registers it
// with the directory. mon may be nil.
func NewWriterGroup(net *evpath.Net, dir directory.Directory, stream string, nWriters int, opts Options, mon *monitor.Monitor) (*WriterGroup, error) {
	if nWriters <= 0 {
		return nil, fmt.Errorf("core: writer group needs at least 1 rank")
	}
	if err := directory.ValidateTenant(opts.Tenant); err != nil {
		return nil, err
	}
	if opts.Quota.MaxRanks > 0 && nWriters > opts.Quota.MaxRanks {
		return nil, fmt.Errorf("%w: %d writer ranks over MaxRanks %d", ErrOverQuota, nWriters, opts.Quota.MaxRanks)
	}
	g := &WriterGroup{
		Stream:      stream,
		NWriters:    nWriters,
		key:         directory.Qualify(opts.Tenant, stream),
		opts:        opts.withDefaults(),
		net:         net,
		dir:         dir,
		mon:         mon,
		credits:     newCreditWindow(opts.Tenant, opts.Quota, mon),
		sess:        newSession("writer", mon),
		lastDist:    make(map[string][]int64),
		curDist:     make(map[string][]int64),
		open:        make(map[int64]*pendingStep),
		plans:       make(map[varPlanKey]*varPlanEntry),
		payloadPool: shm.NewBufferPool(opts.PoolMaxBytes),
	}
	g.selCond = sync.NewCond(&g.selMu)
	g.curTransport = g.opts.Transport

	contact := g.key + ".coord"
	l, err := net.Listen(contact)
	if err != nil {
		return nil, err
	}
	g.coordListener = l
	if err := dir.Register(g.key, contact); err != nil {
		l.Close()
		return nil, err
	}
	g.writers = make([]*Writer, nWriters)
	for i := range g.writers {
		g.writers[i] = &Writer{g: g, Rank: i}
	}
	// Accept the reader coordinator's connection in the background; the
	// first EndStep blocks until selections arrive.
	go g.acceptCoordinator()

	if g.opts.Async {
		g.asyncCh = make(chan *pendingStep, g.opts.AsyncQueueDepth)
		g.asyncDone = make(chan struct{})
		go g.asyncWorker()
	}
	return g, nil
}

// Writer returns rank w's handle.
func (g *WriterGroup) Writer(w int) *Writer { return g.writers[w] }

// BeginStep starts timestep `step` for this rank. Each rank must write
// steps in increasing order; ranks may be at most one step apart (the
// usual bulk-synchronous discipline), which the per-step deposit
// accounting below tolerates without a global barrier.
func (w *Writer) BeginStep(step int64) error {
	g := w.g
	g.stepMu.Lock()
	defer g.stepMu.Unlock()
	if w.cur != nil {
		return fmt.Errorf("core: rank %d began step %d with step %d still open", w.Rank, step, w.cur.step)
	}
	if w.begun && step <= w.lastStep {
		return fmt.Errorf("core: rank %d began step %d after step %d", w.Rank, step, w.lastStep)
	}
	ps, ok := g.open[step]
	if !ok {
		ps = &pendingStep{
			step: step,
			vars: make(map[int][]varData),
			done: make(chan struct{}),
		}
		g.open[step] = ps
	}
	w.cur = ps
	w.begun = true
	w.lastStep = step
	return nil
}

// Write deposits one variable for the current step. Data is copied, so
// the caller may reuse its buffer immediately (the copy is the first of
// the transport's memory copies and what makes the async API safe).
func (w *Writer) Write(meta VarMeta, data []byte) error {
	if err := meta.Validate(); err != nil {
		return err
	}
	need := int64(len(data))
	switch meta.Kind {
	case GlobalArrayVar:
		if want := meta.Box.NumElements() * int64(meta.ElemSize); need != want {
			return fmt.Errorf("core: %q: %d bytes for box %v (want %d)", meta.Name, need, meta.Box, want)
		}
	case ScalarVar:
		if need != int64(meta.ElemSize) {
			return fmt.Errorf("core: scalar %q: %d bytes, want %d", meta.Name, need, meta.ElemSize)
		}
	}
	g := w.g
	// Tenant backpressure: staging these bytes must fit the tenant's
	// credit window. Blocks (outside any group lock) until earlier steps
	// flush and hand credits back — the hot writer stalls here, on its own
	// window, before its data ever reaches the shared transport.
	if err := g.credits.acquireBytes(need); err != nil {
		return err
	}
	buf, err := g.payloadPool.Get(headerRoom + len(data))
	if err != nil {
		g.credits.releaseBytes(need)
		return err
	}
	copy(buf[headerRoom:], data)
	if g.mon != nil {
		g.mon.RecordAlloc(need)
	}
	g.stepMu.Lock()
	defer g.stepMu.Unlock()
	if w.cur == nil {
		g.payloadPool.Put(buf)
		g.credits.releaseBytes(need)
		return fmt.Errorf("core: rank %d Write before BeginStep", w.Rank)
	}
	w.cur.vars[w.Rank] = append(w.cur.vars[w.Rank], varData{meta: meta, buf: buf})
	w.cur.staged += need
	return nil
}

// EndStep completes the rank's participation in the step. When the last
// rank arrives, the step is flushed — synchronously (EndStep returns when
// data movement finished) or asynchronously (EndStep returns once the
// step is queued).
func (w *Writer) EndStep() error {
	g := w.g
	g.stepMu.Lock()
	ps := w.cur
	if ps == nil {
		g.stepMu.Unlock()
		return fmt.Errorf("core: rank %d EndStep before BeginStep", w.Rank)
	}
	w.cur = nil
	ps.deposits++
	last := ps.deposits == g.NWriters
	if last {
		delete(g.open, ps.step)
	}
	g.stepMu.Unlock()

	if !last {
		if g.opts.Async {
			return nil
		}
		<-ps.done
		return ps.err
	}
	if g.opts.Async {
		g.asyncErrMu.Lock()
		err := g.asyncErr
		g.asyncErrMu.Unlock()
		if err != nil {
			return err
		}
		// Tenant backpressure: each queued step holds an in-flight slot
		// until its flush retires; at MaxInflightSteps the completing rank
		// stalls here, on its own tenant's window.
		if err := g.credits.acquireStep(); err != nil {
			return err
		}
		g.asyncCh <- ps
		return nil
	}
	if err := g.credits.acquireStep(); err != nil {
		return err
	}
	ps.err = g.flush(ps)
	g.retireStepCredits(ps)
	close(ps.done)
	return ps.err
}

// retireStepCredits returns a flushed step's tenant credits — its staged
// bytes and its in-flight slot — waking producers blocked on the window.
func (g *WriterGroup) retireStepCredits(ps *pendingStep) {
	g.credits.releaseBytes(ps.staged)
	g.credits.releaseStep()
}

func (g *WriterGroup) asyncWorker() {
	defer close(g.asyncDone)
	for ps := range g.asyncCh {
		if err := g.flush(ps); err != nil {
			g.asyncErrMu.Lock()
			g.asyncErr = err
			g.asyncErrMu.Unlock()
		}
		g.retireStepCredits(ps)
		ps.err = nil
		close(ps.done)
	}
}

// appendBox appends one writer box to a variable's distribution record:
// its rank, then Lo, then Hi, so the record of all writers' boxes in rank
// order is self-delimiting and two records are equal exactly when the
// distributions are. The caching logic compares records to detect changes
// (particle counts changing across timesteps force re-handshaking even
// under CACHING_ALL).
func appendBox(rec []int64, b ndarray.Box) []int64 {
	rec = append(rec, int64(len(b.Lo)))
	rec = append(rec, b.Lo...)
	return append(rec, b.Hi...)
}

// stepTrace carries the correlation attributes every stage opened on one
// timestep's data path shares: the session epoch and the id of the
// enclosing writer.flush event every pack/plug-in/send event descends
// from, which is what lets the critical-path extractor chain them and a
// Chrome trace link them across ranks.
type stepTrace struct {
	epoch  uint64
	parent flight.EventID
}

// flush performs the per-step protocol: apply a parked reconfiguration
// (this is the quiesce point — flushes are serialized, so any in-flight
// step and the async queue up to here have drained), (re-)handshake as
// the caching level demands, then pack and send each writer's pieces
// (Step 4.s).
func (g *WriterGroup) flush(ps *pendingStep) error {
	epoch := g.sess.Epoch()
	flushSt := g.journal.Begin(observer(g.mon), flight.Event{
		Kind: flight.KindCompute, Point: "writer.flush", Scope: g.key,
		Step: ps.step, Epoch: epoch,
	})
	defer flushSt.End()
	tr := stepTrace{epoch: epoch, parent: flushSt.ID()}
	g.selMu.Lock()
	readerGone := g.readerClosed
	g.selMu.Unlock()
	if readerGone {
		return ErrSessionClosed
	}
	if err := g.applyPendingReconfig(ps.step); err != nil {
		return err
	}
	sel, err := g.waitSelections()
	if err != nil {
		return err
	}
	if err := g.ensureConns(); err != nil {
		return err
	}

	// Collect variable names in deterministic order (gather Step 1.s —
	// free of cost here because ranks share an address space, but still a
	// distinct protocol step whose skipping CachingLocal+ records).
	// The same pass records each variable's writer boxes in rank order.
	var names []string
	seen := map[string]bool{}
	for w := 0; w < g.NWriters; w++ {
		for _, v := range ps.vars[w] {
			name := v.meta.Name
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
				g.curDist[name] = g.curDist[name][:0]
			}
			g.curDist[name] = appendBox(g.curDist[name], v.meta.Box)
		}
	}
	if g.mon != nil && g.opts.Caching == NoCaching {
		g.mon.Incr("handshake.local-gather", int64(len(names)))
	}

	// Steps 2-3: exchange distribution with the peer coordinator when the
	// caching level or a distribution change demands it.
	for _, name := range names {
		cur := g.curDist[name]
		cached := g.sentAnyDist && slices.Equal(g.lastDist[name], cur)
		need := false
		switch g.opts.Caching {
		case NoCaching:
			need = true
		case CachingLocal:
			need = true // local info reused, but peer exchange still happens
		case CachingAll:
			need = !cached
		}
		if need {
			if err := g.sendWriterDist(ps, name); err != nil {
				return err
			}
			g.lastDist[name] = append(g.lastDist[name][:0], cur...)
		}
	}
	g.sentAnyDist = true

	// Step 4.s: pack strides per receiver and send.
	if g.opts.Batching {
		err = g.sendBatched(ps, sel, tr)
	} else {
		err = g.sendPerVariable(ps, sel, tr)
	}
	if err != nil {
		return err
	}

	// Step completion markers let readers detect step boundaries without
	// trusting piece counts.
	for w := 0; w < g.NWriters; w++ {
		for r := 0; r < sel.nReaders; r++ {
			ev := &evpath.Event{Meta: evpath.Record{
				"kind": msgStepDone, "step": ps.step, "writer": int64(w),
			}}
			if err := g.sendEvent(w, r, ev, ps.step, tr); err != nil {
				return err
			}
		}
	}
	// Release deposited buffers back to the payload pool: every send that
	// referenced them has returned by now.
	for _, vars := range ps.vars {
		for _, v := range vars {
			if g.mon != nil {
				g.mon.RecordFree(int64(len(v.data())))
			}
			g.payloadPool.Put(v.buf)
		}
	}
	// Online monitoring: gather this side's counters and ship them to
	// the analytics side for runtime management (Section II.G).
	g.shipMonitorReport(ps.step)
	// First successful flush completes the handshake stage; after a
	// reconfiguration the session likewise returns through Handshaking.
	if g.sess.State() == StateHandshaking {
		g.sess.tryTransition(StateStreaming)
	}
	return nil
}

// sendPerVariable moves each variable separately (default granularity).
// Writer ranks proceed in parallel on the bounded executor: each rank
// owns its own row of data connections, so per-rank packing and sending
// are independent.
func (g *WriterGroup) sendPerVariable(ps *pendingStep, sel readerSelections, tr stepTrace) error {
	return parallelFor(g.NWriters, g.opts.PackWorkers, func(w int) error {
		for _, v := range ps.vars[w] {
			pack := g.journal.Begin(observer(g.mon), flight.Event{
				Kind: flight.KindCompute, Point: "writer.pack", Scope: g.key,
				Rank: w, Step: ps.step, Epoch: tr.epoch, Parent: tr.parent,
			})
			pieces, err := g.piecesFor(ps.step, w, v, sel)
			pack.End()
			if err != nil {
				return err
			}
			if err := g.sendOutgoing(w, ps.step, pieces, tr); err != nil {
				return err
			}
		}
		return nil
	})
}

// sendOutgoing runs the plug-in chain and ships one variable's outgoing
// events. Owned payloads are either handed off to a same-node reader by
// reference (returned to the pool by the reader's release) or returned
// here once the copying send is done with them.
func (g *WriterGroup) sendOutgoing(w int, step int64, pieces map[int][]outgoing, tr stepTrace) error {
	defer g.releaseOutgoing(pieces)
	for r := range pieces {
		ogs := pieces[r]
		for i := range ogs {
			og := &ogs[i]
			out, err := g.applyWriterPlugins(og.ev, step, w, tr)
			if err != nil {
				return err
			}
			if out == nil {
				continue
			}
			// Framing in place and hand-off are only sound while the event's
			// Data still is exactly the pooled payload; a plug-in that
			// rewrote it breaks the aliasing and forces the concatenating
			// encode.
			buf := og.buf
			if buf != nil && !sameBytes(out.Data, buf[headerRoom:]) {
				buf = nil
			}
			handed, err := g.sendPiece(w, r, out, step, tr, buf, og.owned)
			if handed {
				og.owned = false // now owned by the receiver's release path
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// releaseOutgoing returns every owned payload not handed off back to the
// pool.
func (g *WriterGroup) releaseOutgoing(pieces map[int][]outgoing) {
	for _, ogs := range pieces {
		for i := range ogs {
			if ogs[i].owned {
				g.payloadPool.Put(ogs[i].buf)
				ogs[i].owned = false
			}
		}
	}
}

// sameBytes reports whether a and b are the identical slice (same base
// pointer and length), i.e. a still aliases exactly b.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// applyWriterPlugins runs the deployed data-conditioning chain on one
// outgoing event, recording a dc.plugin stage (writer's address space)
// when any codelet is installed. nil, nil means the event was dropped.
func (g *WriterGroup) applyWriterPlugins(ev *evpath.Event, step int64, w int, tr stepTrace) (*evpath.Event, error) {
	if g.plugins.empty() {
		return ev, nil
	}
	plug := g.journal.Begin(observer(g.mon), flight.Event{
		Kind: flight.KindCompute, Point: "dc.plugin", Scope: g.key,
		Rank: w, Step: step, Epoch: tr.epoch, Parent: tr.parent,
	})
	out, err := g.plugins.apply(ev)
	plug.End()
	if err != nil {
		return nil, err
	}
	if out == nil {
		if g.mon != nil {
			g.mon.Incr("dc.writer.dropped", 1)
		}
		return nil, nil
	}
	return out, nil
}

// sendBatched packs all of a writer's pieces for one reader into a single
// framed transfer, aggregating handshaking and data messages. As in
// sendPerVariable, writer ranks run in parallel.
func (g *WriterGroup) sendBatched(ps *pendingStep, sel readerSelections, tr stepTrace) error {
	return parallelFor(g.NWriters, g.opts.PackWorkers, func(w int) error {
		// Batching concatenates payloads into one frame per reader, so the
		// pooled buffers are always copied (never handed off) and returned
		// once every batch has been encoded.
		var pooled [][]byte
		defer func() {
			for _, buf := range pooled {
				g.payloadPool.Put(buf)
			}
		}()
		perReader := make(map[int][]*evpath.Event)
		for _, v := range ps.vars[w] {
			pack := g.journal.Begin(observer(g.mon), flight.Event{
				Kind: flight.KindCompute, Point: "writer.pack", Scope: g.key,
				Rank: w, Step: ps.step, Epoch: tr.epoch, Parent: tr.parent,
			})
			pieces, err := g.piecesFor(ps.step, w, v, sel)
			pack.End()
			if err != nil {
				return err
			}
			for r, ogs := range pieces {
				for _, og := range ogs {
					perReader[r] = append(perReader[r], og.ev)
					if og.owned {
						pooled = append(pooled, og.buf)
					}
				}
			}
		}
		for r, evs := range perReader {
			if len(evs) == 0 {
				continue
			}
			// Frame: concatenated encoded sub-events with a count.
			var payload []byte
			kept := 0
			for _, ev := range evs {
				out, err := g.applyWriterPlugins(ev, ps.step, w, tr)
				if err != nil {
					return err
				}
				if out == nil {
					continue
				}
				ev = out
				kept++
				b, err := evpath.EncodeEvent(ev)
				if err != nil {
					return err
				}
				var hdr [8]byte
				putLen(hdr[:], len(b))
				payload = append(payload, hdr[:]...)
				payload = append(payload, b...)
			}
			if kept == 0 {
				continue
			}
			batch := &evpath.Event{
				Meta: evpath.Record{"kind": msgBatch, "step": ps.step, "writer": int64(w), "count": int64(kept)},
				Data: payload,
			}
			if err := g.sendEvent(w, r, batch, ps.step, tr); err != nil {
				return err
			}
		}
		return nil
	})
}

// outgoing pairs one data event with the pool buffer backing its Data:
// ev.Data is exactly buf[headerRoom:], so sendPiece can frame the event
// in place. owned says whose buffer it is. A packed array piece is owned
// by exactly this event: it is either handed off to a same-node reader by
// reference or returned to the pool after the copying send. A deposited
// variable copy is shared state (one buffer broadcast to several readers,
// framed in place once per send, never handed off) that the flush path
// releases.
type outgoing struct {
	ev    *evpath.Event
	buf   []byte
	owned bool
}

// piecesFor computes the pieces writer w must send for variable v,
// keyed by reader rank. This is the per-process mapping computation: the
// overlap of the writer's box with each reader's requested box. For
// global arrays the geometry comes from the redistribution plan cache,
// and packed payloads are drawn from the payload pool; ownership of
// those buffers passes to the caller with the returned outgoing entries
// (releaseOutgoing returns any that are not handed off). On error no
// pooled buffer remains checked out.
func (g *WriterGroup) piecesFor(step int64, w int, v varData, sel readerSelections) (map[int][]outgoing, error) {
	out := make(map[int][]outgoing)
	switch v.meta.Kind {
	case ScalarVar:
		// Rank 0 broadcasts scalars.
		if w != 0 {
			return out, nil
		}
		for r := 0; r < sel.nReaders; r++ {
			out[r] = append(out[r], outgoing{ev: &evpath.Event{
				Meta: evpath.Record{
					"kind": msgData, "step": step, "var": v.meta.Name,
					"varkind": int64(ScalarVar), "elemsize": int64(v.meta.ElemSize),
					"writer": int64(w),
				},
				Data: v.data(),
			}, buf: v.buf})
		}
	case ProcessGroupVar:
		for _, r := range sel.pgClaims[w] {
			out[r] = append(out[r], outgoing{ev: &evpath.Event{
				Meta: evpath.Record{
					"kind": msgData, "step": step, "var": v.meta.Name,
					"varkind": int64(ProcessGroupVar), "elemsize": int64(v.meta.ElemSize),
					"writer": int64(w),
				},
				Data: v.data(),
			}, buf: v.buf})
		}
	case GlobalArrayVar:
		selBoxes, ok := sel.arrays[v.meta.Name]
		if !ok {
			return out, nil // nobody reads this variable
		}
		if len(selBoxes) != sel.nReaders {
			// A well-formed reader-dist message always carries one box per
			// reader rank (empty boxes for non-selecting ranks); anything
			// else would silently starve the trailing readers.
			return nil, fmt.Errorf("core: %q: reader selection has %d boxes for %d readers",
				v.meta.Name, len(selBoxes), sel.nReaders)
		}
		entry, err := g.packPlansFor(w, v, sel, selBoxes)
		if err != nil {
			return nil, err
		}
		nd := int64(len(v.meta.GlobalShape))
		for i := range entry.targets {
			tgt := &entry.targets[i]
			buf, err := g.payloadPool.Get(headerRoom + int(tgt.plan.Bytes()))
			if err == nil {
				err = tgt.plan.Execute(buf[headerRoom:], v.data())
				if err != nil {
					g.payloadPool.Put(buf)
				}
			}
			if err != nil {
				g.releaseOutgoing(out)
				return nil, err
			}
			out[tgt.reader] = append(out[tgt.reader], outgoing{
				ev: &evpath.Event{
					Meta: evpath.Record{
						"kind": msgData, "step": step, "var": v.meta.Name,
						"varkind": int64(GlobalArrayVar), "elemsize": int64(v.meta.ElemSize),
						"ndims": nd, "box": tgt.boxMeta,
						"writer": int64(w),
					},
					Data: buf[headerRoom:],
				},
				buf: buf, owned: true,
			})
		}
	}
	return out, nil
}

func (g *WriterGroup) sendEvent(w, r int, ev *evpath.Event, step int64, tr stepTrace) error {
	_, err := g.sendPiece(w, r, ev, step, tr, nil, false)
	return err
}

// sendPiece delivers one event to reader r. buf, when non-nil, is the
// pool buffer whose tail past headerRoom still is exactly ev.Data; with it
// the payload is never copied into a fresh message. If the caller owns
// buf (a packed array piece) and the connection supports handle passing,
// only the encoded metadata header crosses by copy: the payload is handed
// to the reader by reference and returns to the pool through the release
// callback once the reader unpacked it. handedOff reports whether that
// transfer of ownership happened; if false the caller still owns buf.
// Otherwise the header is written right-aligned into the room in front of
// the payload, which makes buf's tail byte for byte what EncodeEvent(ev)
// would have built, and that slice goes to the transport's copying Send —
// the transport is done with it when Send returns. The concatenating
// encode remains for everything else: no buf (control events, batches, a
// plug-in replaced Data), a header that outgrows the room, NoZeroCopy.
// The send event keeps the "send.<transport>" point either way — on the
// hand-off path its Bytes shrink to the header, which is how the critical
// path shows the writer→reader seam collapsing to handle-passing cost.
func (g *WriterGroup) sendPiece(w, r int, ev *evpath.Event, step int64, tr stepTrace, buf []byte, owned bool) (handedOff bool, err error) {
	conn := g.conns[w][r]
	inPlace := buf != nil && !g.opts.NoZeroCopy
	var hc evpath.HandleConn
	if inPlace && owned {
		hc, _ = conn.(evpath.HandleConn)
	}
	// msg is what crosses by copy: the meta-only header on the hand-off
	// path (the reader reattaches the referenced payload, reconstructing
	// exactly EncodeEvent(ev)'s framing), the whole framed event otherwise.
	var msg []byte
	if inPlace {
		hdr := evpath.Event{Meta: ev.Meta}
		if msg, err = evpath.EncodeEvent(&hdr); err != nil {
			return false, err
		}
		switch {
		case hc != nil: // header by copy, payload by handle
		case len(msg) <= headerRoom:
			framed := buf[headerRoom-len(msg):]
			copy(framed, msg)
			msg = framed
		default:
			msg = nil // the header outgrew the room
		}
	}
	if msg == nil {
		if msg, err = evpath.EncodeEvent(ev); err != nil {
			return false, err
		}
	}
	send := g.beginSend(conn, w, r, step, tr, len(msg))
	if hc != nil {
		err = hc.SendHandle(msg, buf[headerRoom:], func() { g.payloadPool.Put(buf) })
		switch {
		case err == nil:
			handedOff = true
		case errors.Is(err, evpath.ErrNoHandle):
			// Header too large for the inline queue (and so for the room):
			// re-encode with the payload attached and copy it across.
			if msg, err = evpath.EncodeEvent(ev); err == nil {
				err = g.sendWithRetry(conn, msg)
			}
		}
	} else {
		err = g.sendWithRetry(conn, msg)
	}
	send.End()
	if g.mon != nil && buf != nil && owned && conn.Transport() == "shm" {
		// Same-node array payload: did it cross by reference?
		if handedOff {
			g.mon.Incr("shm.zerocopy_hits", 1)
		} else {
			g.mon.Incr("shm.zerocopy_fallbacks", 1)
		}
	}
	if err != nil {
		if !errors.Is(err, ErrSessionClosed) {
			g.selMu.Lock()
			gone := g.readerClosed
			g.selMu.Unlock()
			if gone {
				err = fmt.Errorf("%w: %v", ErrSessionClosed, err)
			}
		}
		return handedOff, err
	}
	if g.mon != nil {
		g.mon.Incr("data.msgs", 1)
		sent := int64(len(msg))
		if handedOff {
			// Volume accounting: a handed-off payload still moved to the
			// reader even though it was not copied.
			sent += int64(len(ev.Data))
		}
		g.mon.AddVolume("data.bytes", sent)
	}
	return handedOff, nil
}

// beginSend opens the send.<transport> stage for one message of msgLen
// bytes from writer w to reader r.
func (g *WriterGroup) beginSend(conn evpath.Conn, w, r int, step int64, tr stepTrace, msgLen int) flight.Stage {
	if g.journal == nil && g.mon == nil { // the point concat and channel formatting must not run on the nil path
		return flight.Stage{}
	}
	wire := int64(msgLen)
	if wc, ok := conn.(evpath.WireConn); ok {
		// Real wire transports frame every message; attribute the bytes
		// actually on the wire, not just the payload.
		wire += int64(wc.WireOverhead())
	}
	return g.journal.Begin(observer(g.mon), flight.Event{
		Kind: flight.KindSend, Point: "send." + conn.Transport(),
		Channel: fmt.Sprintf("w%d>r%d", w, r), Scope: g.key,
		Rank: w, Step: step, Epoch: tr.epoch, Parent: tr.parent,
		Bytes: wire,
	})
}

// sendWithRetry implements the runtime's timeout-and-retry resiliency
// scheme (Section II.H): transient transport faults are retried with a
// short backoff up to Options.SendRetries times; permanent failures (and
// exhausted budgets) surface to the caller. A failure caused by the peer
// hanging up the session surfaces as ErrSessionClosed.
func (g *WriterGroup) sendWithRetry(conn evpath.Conn, buf []byte) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = conn.Send(buf)
		if err == nil {
			return nil
		}
		if !errors.Is(err, evpath.ErrTransient) || attempt >= g.opts.SendRetries {
			g.selMu.Lock()
			gone := g.readerClosed
			g.selMu.Unlock()
			if gone {
				return fmt.Errorf("%w: %v", ErrSessionClosed, err)
			}
			return err
		}
		if g.mon != nil {
			g.mon.Incr("send.retries", 1)
		}
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
	}
}

// Close flushes pending async steps, closes every connection (readers see
// End-of-Stream), and unregisters the stream.
func (g *WriterGroup) Close() error {
	var err error
	g.closeOnce.Do(func() {
		g.selMu.Lock()
		g.closed = true
		g.selMu.Unlock()
		g.credits.close()
		g.sess.tryTransition(StateDraining)
		if g.opts.Async {
			close(g.asyncCh)
			<-g.asyncDone
			g.asyncErrMu.Lock()
			err = g.asyncErr
			g.asyncErrMu.Unlock()
		}
		g.closeDataConns()
		g.selMu.Lock()
		coord := g.coordConn
		g.selMu.Unlock()
		if coord != nil {
			coord.Close()
		}
		g.coordListener.Close()
		g.dir.Unregister(g.key) //nolint:errcheck
		g.sess.tryTransition(StateClosed)
	})
	return err
}

func putLen(b []byte, n int) {
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(n) >> (8 * i))
	}
}

func getLen(b []byte) int {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return int(v)
}
