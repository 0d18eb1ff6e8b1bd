package core

import (
	"fmt"
	"time"

	"flexio/internal/dcplugin"
	"flexio/internal/evpath"
	"flexio/internal/ndarray"
)

// Control plane of a coupled stream. Everything in this file runs over
// the single coordinator connection (or reacts to what arrives on it):
// the four-step handshake's distribution exchange, DC plug-in
// deployment routing, mid-run reconfiguration, and session teardown.
// The data plane — per-pair data connections moving packed pieces — is
// in writer.go / reader.go and is rewired by this layer at epoch
// boundaries without participating in the decisions.

// Control message kinds carried on the coordinator connection (the data
// kinds live in types.go).
const (
	msgReconfig      = "reconfig"       // reader -> writer: new selections / rank count / placement
	msgReconfigAck   = "reconfig-ack"   // writer -> reader: {epoch, boundary}
	msgSessionClosed = "session-closed" // either side: orderly mid-stream hangup
)

// reconfigRequest is a decoded msgReconfig held by the writer until the
// next step boundary.
type reconfigRequest struct {
	sel     readerSelections
	after   int64   // last step the readers consumed under the old regime
	nodes   []int64 // optional node id per new reader rank (placement change)
	arrived time.Time
}

// reconfigAckMsg is the writer's answer: the new session epoch and the
// boundary B — the first step flushed under the new regime. Steps in
// (after, B) were flushed under the old regime and are replayed
// reader-side.
type reconfigAckMsg struct {
	epoch    uint64
	boundary int64
}

// ---------------------------------------------------------------------
// Writer-side control plane

// acceptCoordinator accepts the reader coordinator's connection and pumps
// its control messages for the life of the session: selections (initial
// handshake and re-selections), plug-in deployment, reconfiguration
// requests, and the session-closed notice.
func (g *WriterGroup) acceptCoordinator() {
	conn, ok := g.coordListener.Accept()
	if !ok {
		g.failSelections(fmt.Errorf("core: stream %q closed before readers connected", g.Stream))
		return
	}
	g.selMu.Lock()
	g.coordConn = conn
	g.selMu.Unlock()
	g.sess.tryTransition(StateHandshaking)
	for {
		buf, err := conn.Recv()
		if err != nil {
			// The peer vanished (or we are closing): treat like an explicit
			// session-closed so the data plane is torn down either way.
			g.peerClosed()
			return
		}
		ev, err := evpath.DecodeEvent(buf)
		if err != nil {
			g.failSelections(fmt.Errorf("core: bad coordinator message: %w", err))
			return
		}
		kind, _ := ev.Meta.GetString("kind")
		switch kind {
		case msgDeployPlugin:
			ack := g.handlePluginControl(ev)
			if buf, err := evpath.EncodeEvent(ack); err == nil {
				conn.Send(buf) //nolint:errcheck // reader times out if lost
			}
		case msgReaderDist:
			sel, err := decodeReaderSelections(ev)
			if err != nil {
				g.failSelections(err)
				return
			}
			g.selMu.Lock()
			sel.gen = g.sess.Epoch()
			g.sel = sel
			g.nReaders = sel.nReaders
			g.selReady = true
			g.selCond.Broadcast()
			g.selMu.Unlock()
			if g.mon != nil {
				g.mon.Incr("handshake.reader-dist.recv", 1)
			}
		case msgReconfig:
			g.handleReconfigRequest(ev)
		case msgSessionClosed:
			g.peerClosed()
			return
		}
	}
}

// handleReconfigRequest decodes and parks a reconfiguration until the
// data plane reaches its next step boundary (applyPendingReconfig).
func (g *WriterGroup) handleReconfigRequest(ev *evpath.Event) {
	sel, err := decodeReaderSelections(ev)
	if err != nil {
		return
	}
	after, _ := ev.Meta.GetInt("after")
	nodes, _ := ev.Meta.GetInts("nodes")
	g.selMu.Lock()
	g.pendingReconfig = &reconfigRequest{sel: sel, after: after, nodes: nodes, arrived: time.Now()}
	g.selMu.Unlock()
	g.sess.tryTransition(StateReconfiguring)
	if g.mon != nil {
		g.mon.Incr("reconfig.requests.recv", 1)
	}
}

// applyPendingReconfig is the writer's half of the reconfiguration
// protocol, invoked by flush() at a step boundary — the quiesce point:
// any in-flight flush has completed and the async queue has drained up
// to this step. It bumps the session epoch (atomically invalidating the
// plan cache and the cached-distribution state), retires the old data
// connections, installs the new transport map, re-registers the stream
// contact, and acks {epoch, boundary} so the reader knows which steps to
// replay. boundary is the step about to be flushed under the new regime.
func (g *WriterGroup) applyPendingReconfig(boundary int64) error {
	g.selMu.Lock()
	pr := g.pendingReconfig
	if pr == nil {
		g.selMu.Unlock()
		return nil
	}
	g.pendingReconfig = nil
	// The control plane normally moved to Reconfiguring on request
	// arrival; re-assert for requests that raced the very first handshake.
	g.sess.tryTransition(StateReconfiguring) //nolint:errcheck
	drain := time.Since(pr.arrived)
	epoch := g.sess.bumpEpoch()
	pr.sel.gen = epoch
	g.sel = pr.sel
	g.nReaders = pr.sel.nReaders
	g.selReady = true
	g.selCond.Broadcast()
	coord := g.coordConn
	g.selMu.Unlock()

	// Retire (do not close) the old epoch's connections: the reader drains
	// replay steps from them before hanging them up; Close() reaps any
	// survivors.
	g.connMu.Lock()
	g.retired = append(g.retired, g.conns...)
	g.conns = nil
	g.connMu.Unlock()

	// New placement: derive per-pair transports from the node map the
	// reader shipped by evpath's one node -> transport rule. Without
	// nodes the existing map stays.
	if len(pr.nodes) > 0 {
		nodes := pr.nodes
		writerNode := g.opts.WriterNode
		g.curTransport = func(w, r int) (evpath.TransportKind, int, int) {
			wn := 0
			if writerNode != nil {
				wn = writerNode(w)
			}
			rn := int(nodes[r])
			return evpath.TransportBetween(wn, rn), wn, rn
		}
	}

	// The epoch bump already invalidates cached plans (gen mismatch);
	// dropping them also frees the old fan-out's memory. Distribution
	// caching restarts from scratch: the new peer set has seen nothing.
	g.planMu.Lock()
	g.plans = make(map[varPlanKey]*varPlanEntry)
	g.planMu.Unlock()
	g.lastDist = make(map[string][]int64)
	g.sentAnyDist = false

	// Atomic contact re-registration: publishes the (unchanged) coordinator
	// contact under the new regime; late joiners resolve the live session.
	g.dir.Register(g.key, g.key+".coord") //nolint:errcheck // replacement cannot fail on Mem

	if g.mon != nil {
		g.mon.Incr("reconfig.count", 1)
		g.mon.Incr("reconfig.drain_ns", drain.Nanoseconds())
		g.mon.Observe("reconfig.drain", drain.Seconds())
	}

	if coord == nil {
		return fmt.Errorf("core: reconfig with no coordinator connection")
	}
	buf, err := evpath.EncodeEvent(&evpath.Event{Meta: evpath.Record{
		"kind": msgReconfigAck, "epoch": int64(epoch), "boundary": boundary,
	}})
	if err != nil {
		return err
	}
	if err := coord.Send(buf); err != nil {
		return err
	}
	// Re-handshake at the configured caching level; flush completes the
	// return to Streaming.
	g.sess.tryTransition(StateHandshaking) //nolint:errcheck
	return nil
}

// peerClosed tears the writer's data plane down after the reader side
// went away — via an explicit session-closed message or a dead
// coordinator connection. Subsequent flushes fail with ErrSessionClosed.
func (g *WriterGroup) peerClosed() {
	g.selMu.Lock()
	if g.closed {
		g.selMu.Unlock()
		return
	}
	g.readerClosed = true
	if !g.selReady {
		g.selErr = ErrSessionClosed
		g.selReady = true
		g.selCond.Broadcast()
	}
	g.selMu.Unlock()
	// Producers blocked on tenant credits must observe the hangup too:
	// their credits will never come back from a dead data plane.
	g.credits.close()
	g.sess.tryTransition(StateDraining)
	g.closeDataConns()
}

// closeDataConns closes every data connection, current and retired.
func (g *WriterGroup) closeDataConns() {
	g.connMu.Lock()
	defer g.connMu.Unlock()
	for _, row := range g.conns {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
	for _, row := range g.retired {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
}

func (g *WriterGroup) failSelections(err error) {
	g.selMu.Lock()
	if !g.selReady {
		g.selErr = err
		g.selReady = true
		g.selCond.Broadcast()
	}
	g.selMu.Unlock()
}

// waitSelections blocks until the reader side has declared its
// distributions (the writer's view of handshake Step 2).
func (g *WriterGroup) waitSelections() (readerSelections, error) {
	g.selMu.Lock()
	defer g.selMu.Unlock()
	for !g.selReady {
		g.selCond.Wait()
	}
	return g.sel, g.selErr
}

// ensureConns lazily dials the data connections of the current epoch.
// Contact names are epoch-qualified, so a reconfigured session can never
// cross-connect with a retiring epoch's listeners.
func (g *WriterGroup) ensureConns() error {
	if g.conns != nil {
		return nil
	}
	epoch := g.sess.Epoch()
	conns := make([][]evpath.Conn, g.NWriters)
	for w := 0; w < g.NWriters; w++ {
		conns[w] = make([]evpath.Conn, g.nReaders)
		for r := 0; r < g.nReaders; r++ {
			kind, nodeW, nodeR := g.curTransport(w, r)
			conn, err := g.net.Dial(dataContact(g.key, epoch, r), kind, nodeW, nodeR)
			if err != nil {
				return fmt.Errorf("core: dialing reader %d from writer %d: %w", r, w, err)
			}
			if g.mon != nil {
				g.mon.Incr("conn.dial."+kind.String(), 1)
			}
			// Identify ourselves and the writer-group size so the reader
			// can track step completion deterministically.
			hello, err := evpath.EncodeEvent(&evpath.Event{
				Meta: evpath.Record{"kind": "hello", "writer": int64(w), "nwriters": int64(g.NWriters)},
			})
			if err != nil {
				return err
			}
			if g.opts.WrapConn != nil {
				conn = g.opts.WrapConn(conn)
			}
			if err := g.sendWithRetry(conn, hello); err != nil {
				return err
			}
			conns[w][r] = conn
		}
	}
	g.connMu.Lock()
	g.conns = conns
	g.connMu.Unlock()
	return nil
}

func (g *WriterGroup) sendWriterDist(ps *pendingStep, name string) error {
	g.selMu.Lock()
	coord := g.coordConn
	g.selMu.Unlock()
	if coord == nil {
		return fmt.Errorf("core: no coordinator connection")
	}
	// Gather this var's boxes across ranks (empty box when a rank did not
	// write it).
	var nd int
	var elemSize int64
	boxes := make([]ndarray.Box, g.NWriters)
	for w := 0; w < g.NWriters; w++ {
		for _, v := range ps.vars[w] {
			if v.meta.Name == name && v.meta.Kind == GlobalArrayVar {
				boxes[w] = v.meta.Box
				nd = len(v.meta.GlobalShape)
				elemSize = int64(v.meta.ElemSize)
			}
		}
	}
	if nd == 0 {
		return nil // scalar or PG var: no distribution to exchange
	}
	ev := &evpath.Event{Meta: evpath.Record{
		"kind":     msgWriterDist,
		"step":     ps.step,
		"var":      name,
		"ndims":    int64(nd),
		"nwriters": int64(g.NWriters),
		"elemsize": elemSize,
		"boxes":    encodeBoxes(boxes, nd),
	}}
	buf, err := evpath.EncodeEvent(ev)
	if err != nil {
		return err
	}
	if err := coord.Send(buf); err != nil {
		return err
	}
	if g.mon != nil {
		g.mon.Incr("handshake.writer-dist.sent", 1)
	}
	return nil
}

// SessionState reports the writer session's lifecycle state.
func (g *WriterGroup) SessionState() SessionState { return g.sess.State() }

// SessionEpoch reports the writer session's epoch (1 = initial
// configuration; each reconfiguration bumps it).
func (g *WriterGroup) SessionEpoch() uint64 { return g.sess.Epoch() }

// ---------------------------------------------------------------------
// Reader-side control plane

func (g *ReaderGroup) coordPump() {
	for {
		buf, err := g.coordConn.Recv()
		if err != nil {
			return
		}
		ev, err := evpath.DecodeEvent(buf)
		if err != nil {
			continue
		}
		switch kind, _ := ev.Meta.GetString("kind"); kind {
		case msgWriterDist:
			g.handleWriterDist(ev)
		case msgPluginAck:
			g.handlePluginAck(ev)
		case msgMonitorReport:
			g.handleMonitorReport(ev)
		case msgReconfigAck:
			epoch, _ := ev.Meta.GetInt("epoch")
			boundary, _ := ev.Meta.GetInt("boundary")
			g.mu.Lock()
			ch := g.reconfigAck
			g.reconfigAck = nil
			g.mu.Unlock()
			if ch != nil {
				ch <- reconfigAckMsg{epoch: uint64(epoch), boundary: boundary}
			}
		}
	}
}

func (g *ReaderGroup) handleWriterDist(ev *evpath.Event) {
	nd, _ := ev.Meta.GetInt("ndims")
	nw, _ := ev.Meta.GetInt("nwriters")
	flat, _ := ev.Meta.GetInts("boxes")
	if _, err := decodeBoxes(flat, int(nd), int(nw)); err != nil {
		return
	}
	g.mu.Lock()
	g.nWriters = int(nw)
	g.cond.Broadcast()
	g.mu.Unlock()
	if g.mon != nil {
		g.mon.Incr("handshake.writer-dist.recv", 1)
	}
}

// selectionMeta builds the wire form of a reader-side distribution: the
// shared body of the initial reader-dist handshake message and of
// reconfiguration requests. arraySel maps each variable to one box per
// reader rank; pgSel lists each rank's claimed writer ranks.
func selectionMeta(nReaders int, arraySel map[string][]ndarray.Box, pgSel [][]int64) evpath.Record {
	meta := evpath.Record{"nreaders": int64(nReaders)}
	names := make([]string, 0, len(arraySel))
	for name := range arraySel {
		names = append(names, name)
	}
	var nameList string
	for i, name := range names {
		if i > 0 {
			nameList += "\x00"
		}
		nameList += name
		boxes := arraySel[name]
		nd := 0
		for _, b := range boxes {
			if b.NDims() > 0 {
				nd = b.NDims()
			}
		}
		// Normalize empty boxes to rank-nd empties.
		norm := make([]ndarray.Box, len(boxes))
		for i, b := range boxes {
			if b.NDims() != nd {
				norm[i] = ndarray.Box{Lo: make([]int64, nd), Hi: make([]int64, nd)}
			} else {
				norm[i] = b
			}
		}
		meta["sel."+name+".ndims"] = int64(nd)
		meta["sel."+name+".boxes"] = encodeBoxes(norm, nd)
	}
	meta["selvars"] = nameList
	// PG claims: flattened (reader, count, writers...) list.
	var pg []int64
	for r, ws := range pgSel {
		if len(ws) == 0 {
			continue
		}
		pg = append(pg, int64(r), int64(len(ws)))
		pg = append(pg, ws...)
	}
	meta["pgsel"] = pg
	return meta
}

// sendSelections transmits the reader-side distribution to the writer
// coordinator (handshake Step 2, reader's half). Runs once, triggered by
// the first BeginStep after all ranks entered.
func (g *ReaderGroup) sendSelections() error {
	g.mu.Lock()
	meta := selectionMeta(g.NReaders, g.arraySel, g.pgSel)
	g.mu.Unlock()
	meta["kind"] = msgReaderDist
	buf, err := evpath.EncodeEvent(&evpath.Event{Meta: meta})
	if err != nil {
		return err
	}
	if err := g.coordConn.Send(buf); err != nil {
		return err
	}
	if g.mon != nil {
		g.mon.Incr("handshake.reader-dist.sent", 1)
	}
	g.sess.tryTransition(StateStreaming)
	return nil
}

// decodeReaderSelections parses a reader-side distribution (reader-dist
// or reconfig message) on the writer side.
func decodeReaderSelections(ev *evpath.Event) (readerSelections, error) {
	sel := readerSelections{
		arrays:   make(map[string][]ndarray.Box),
		decomps:  make(map[string]*ndarray.Decomposition),
		pgClaims: make(map[int][]int),
	}
	n, _ := ev.Meta.GetInt("nreaders")
	sel.nReaders = int(n)
	if sel.nReaders <= 0 {
		return sel, fmt.Errorf("core: reader-dist without nreaders")
	}
	if names, ok := ev.Meta.GetString("selvars"); ok && names != "" {
		for _, name := range splitNames(names) {
			nd, _ := ev.Meta.GetInt("sel." + name + ".ndims")
			flat, _ := ev.Meta.GetInts("sel." + name + ".boxes")
			if nd == 0 {
				continue
			}
			boxes, err := decodeBoxes(flat, int(nd), sel.nReaders)
			if err != nil {
				return sel, err
			}
			sel.arrays[name] = boxes
			// One index per (variable, selection generation), shared by all
			// writer ranks' plan builds.
			sel.decomps[name] = &ndarray.Decomposition{Boxes: boxes}
		}
	}
	if pg, ok := ev.Meta.GetInts("pgsel"); ok {
		for i := 0; i < len(pg); {
			if i+2 > len(pg) {
				break
			}
			r := int(pg[i])
			cnt := int(pg[i+1])
			i += 2
			for j := 0; j < cnt && i < len(pg); j++ {
				w := int(pg[i])
				i++
				sel.pgClaims[w] = append(sel.pgClaims[w], r)
			}
		}
	}
	return sel, nil
}

func splitNames(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\x00' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// ReconfigSpec describes a mid-run re-placement of the reader group: a
// new rank count, new per-rank selections, and optionally new node
// placement (driving the shm-vs-tcp transport choice per writer-reader
// pair on the next epoch).
type ReconfigSpec struct {
	// NReaders is the new rank count N'.
	NReaders int
	// Arrays maps each global-array variable to one selection box per new
	// rank (empty box = that rank does not read the variable).
	Arrays map[string][]ndarray.Box
	// PG lists, per new rank, the writer ranks whose process groups it
	// consumes. Nil or empty inner slices mean no claims. For replayed
	// steps the claims must fall within the union of the old claims —
	// payloads never received cannot be replayed.
	PG [][]int
	// Nodes optionally gives the node id of each new rank. When set, the
	// writer re-derives every pair's transport (same node -> shm,
	// different -> tcp, so the Net must serve the wire) using
	// Options.WriterNode for its own side.
	Nodes []int
}

// Reconfigure switches the reader group to a new selection decomposition,
// rank count, and/or node placement between timesteps. All current ranks
// must be between BeginStep/EndStep pairs and aligned on the same next
// step. The writer applies the change at its next step boundary; steps it
// had already flushed under the old regime are replayed locally from the
// buffered old-rank pieces, so no step is lost or duplicated. On return,
// Reader handles must be re-fetched via Reader(r) — the group now has
// spec.NReaders ranks whose next BeginStep continues seamlessly after the
// last consumed step.
func (g *ReaderGroup) Reconfigure(spec ReconfigSpec) error {
	if spec.NReaders <= 0 {
		return fmt.Errorf("core: reconfig needs at least 1 rank")
	}
	if g.quota.MaxRanks > 0 && spec.NReaders > g.quota.MaxRanks {
		return fmt.Errorf("%w: reconfig to %d reader ranks over MaxRanks %d", ErrOverQuota, spec.NReaders, g.quota.MaxRanks)
	}
	for name, boxes := range spec.Arrays {
		if len(boxes) != spec.NReaders {
			return fmt.Errorf("core: reconfig %q: %d boxes for %d ranks", name, len(boxes), spec.NReaders)
		}
	}
	if spec.Nodes != nil && len(spec.Nodes) != spec.NReaders {
		return fmt.Errorf("core: reconfig: %d nodes for %d ranks", len(spec.Nodes), spec.NReaders)
	}
	if spec.PG != nil && len(spec.PG) != spec.NReaders {
		return fmt.Errorf("core: reconfig: %d pg claims for %d ranks", len(spec.PG), spec.NReaders)
	}

	g.mu.Lock()
	if !g.selSent {
		g.mu.Unlock()
		return fmt.Errorf("core: reconfig before streaming started")
	}
	if g.reconfiguring {
		g.mu.Unlock()
		return fmt.Errorf("core: reconfiguration already in progress")
	}
	for _, rd := range g.readers {
		if rd.inStep {
			g.mu.Unlock()
			return fmt.Errorf("core: reconfig with rank %d mid-step", rd.Rank)
		}
	}
	after := g.readers[0].nextStep
	for _, rd := range g.readers {
		if rd.nextStep != after {
			g.mu.Unlock()
			return fmt.Errorf("core: reconfig with ranks at different steps (%d vs %d)", after, rd.nextStep)
		}
	}
	after-- // last step every rank consumed
	oldN := g.NReaders
	g.reconfiguring = true
	g.mu.Unlock()

	fail := func(err error) error {
		g.mu.Lock()
		g.reconfiguring = false
		g.mu.Unlock()
		return err
	}
	if err := g.sess.transition(StateReconfiguring); err != nil {
		return fail(err)
	}

	// The next epoch's listeners must exist before the request goes out:
	// the writer may dial them the moment it acks.
	newEpoch := g.sess.Epoch() + 1
	newListeners := make([]*evpath.Listener, spec.NReaders)
	for r := 0; r < spec.NReaders; r++ {
		l, err := g.net.Listen(dataContact(g.key, newEpoch, r))
		if err != nil {
			for _, ll := range newListeners[:r] {
				ll.Close()
			}
			return fail(err)
		}
		newListeners[r] = l
		go g.acceptLoop(newEpoch, r, l)
	}

	// Canonical selection state for the new regime.
	arrays := make(map[string][]ndarray.Box, len(spec.Arrays))
	for name, boxes := range spec.Arrays {
		cp := make([]ndarray.Box, len(boxes))
		copy(cp, boxes)
		arrays[name] = cp
	}
	pgSel := make([][]int64, spec.NReaders)
	for r, ws := range spec.PG {
		if len(ws) == 0 {
			continue
		}
		pgSel[r] = make([]int64, len(ws))
		for i, w := range ws {
			pgSel[r][i] = int64(w)
		}
	}

	ackCh := make(chan reconfigAckMsg, 1)
	g.mu.Lock()
	g.reconfigAck = ackCh
	g.mu.Unlock()

	meta := selectionMeta(spec.NReaders, arrays, pgSel)
	meta["kind"] = msgReconfig
	meta["after"] = after
	if spec.Nodes != nil {
		nodes := make([]int64, len(spec.Nodes))
		for i, n := range spec.Nodes {
			nodes[i] = int64(n)
		}
		meta["nodes"] = nodes
	}
	buf, err := evpath.EncodeEvent(&evpath.Event{Meta: meta})
	if err != nil {
		return fail(err)
	}
	if err := g.coordConn.Send(buf); err != nil {
		return fail(err)
	}
	if g.mon != nil {
		g.mon.Incr("reconfig.requests.sent", 1)
	}

	// The writer acks at its next step boundary; it must still be writing.
	var ack reconfigAckMsg
	select {
	case ack = <-ackCh:
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("core: reconfig ack timed out (writer idle?)"))
	}
	if ack.epoch != newEpoch {
		return fail(fmt.Errorf("core: reconfig epoch mismatch: writer %d, reader %d", ack.epoch, newEpoch))
	}

	// Steps in (after, boundary) were flushed under the old regime. Wait
	// until every old rank has them complete, then snapshot the buffered
	// pieces for replay under the new selections — the no-step-lost half
	// of the guarantee. (No-step-duplicated: the new ranks resume at
	// after+1 and the writer never re-flushes below the boundary.)
	g.mu.Lock()
	for s := after + 1; s < ack.boundary; s++ {
		st := g.step(s)
		for r := 0; r < oldN; r++ {
			for g.nWriters == 0 || len(st.doneWriters[r]) != g.nWriters {
				g.cond.Wait()
			}
		}
	}
	for s := after + 1; s < ack.boundary; s++ {
		g.replay[s] = snapshotReplay(g.steps[s], oldN, spec.NReaders)
	}
	for s := range g.steps {
		if s < ack.boundary {
			delete(g.steps, s)
		}
	}

	// Swap in the new regime: selections, rank handles, epoch-scoped
	// connection accounting, and a fresh unpack-plan cache.
	g.NReaders = spec.NReaders
	g.arraySel = arrays
	g.pgSel = pgSel
	g.readers = make([]*Reader, spec.NReaders)
	for i := range g.readers {
		g.readers[i] = &Reader{g: g, Rank: i, nextStep: after + 1, entered: true}
	}
	g.enteredCnt = spec.NReaders
	g.upPlans = make(map[upKey][]upEntry)
	oldListeners := g.listeners
	g.listeners = newListeners
	g.dataEpoch = newEpoch
	var oldConns []evpath.Conn
	keep := g.dataConns[:0]
	for _, ec := range g.dataConns {
		if ec.epoch < newEpoch {
			oldConns = append(oldConns, ec.conn)
		} else {
			keep = append(keep, ec)
		}
	}
	g.dataConns = keep
	g.reconfiguring = false
	g.cond.Broadcast()
	g.mu.Unlock()

	// Hang up the retired epoch: its pumps exit, the writer's retired
	// rows observe the close.
	for _, l := range oldListeners {
		l.Close()
	}
	for _, c := range oldConns {
		c.Close()
	}

	// Re-ship DC plug-ins previously deployed into the writers' address
	// space: the install is replace-by-name, so this is idempotent for
	// surviving peers and completes the state for a writer that restarted.
	g.mu.Lock()
	deployed := make([]dcplugin.Plugin, len(g.deployed))
	copy(deployed, g.deployed)
	g.mu.Unlock()
	for _, p := range deployed {
		if err := g.pluginControl(evpath.Record{
			"kind": msgDeployPlugin, "name": p.Name, "source": p.Source,
		}, p.Name); err != nil {
			return err
		}
		if g.mon != nil {
			g.mon.Incr("reconfig.plugins_reshipped", 1)
		}
	}

	g.sess.bumpEpoch()
	if g.mon != nil {
		g.mon.Incr("reconfig.count", 1)
	}
	return g.sess.transition(StateStreaming)
}

// SessionState reports the reader session's lifecycle state.
func (g *ReaderGroup) SessionState() SessionState { return g.sess.State() }

// SessionEpoch reports the reader session's epoch.
func (g *ReaderGroup) SessionEpoch() uint64 { return g.sess.Epoch() }
