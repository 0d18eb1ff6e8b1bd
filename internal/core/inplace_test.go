package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/shm"
)

// Tests for the one-copy-per-hop data path: in-place event framing in
// front of pooled payloads, its fallbacks, and pooled receive over a real
// loopback socket.

// captureConn records what the writer hands to Send, by reference.
type captureConn struct {
	evpath.Conn // nil: only Send and Transport are reached
	sent        [][]byte
}

func (c *captureConn) Send(msg []byte) error { c.sent = append(c.sent, msg); return nil }
func (c *captureConn) Transport() string     { return "capture" }

// stamp fills b with bytes that identify (tag, step) at every offset.
func stamp(b []byte, tag, step int) {
	for i := range b {
		b[i] = byte(tag*131 + step*31 + i*7 + i>>8)
	}
}

// framedIn reports whether msg is the tail of buf — the in-place framing —
// rather than a copy of it.
func framedIn(msg, buf []byte) bool {
	return len(msg) > 0 && len(msg) <= len(buf) && &msg[0] == &buf[len(buf)-len(msg)]
}

// TestSendPieceFramesInPlace drives sendPiece and sendOutgoing against a
// capturing connection. Whatever path a message takes, its bytes equal
// EncodeEvent(ev); it takes the in-place path — the message is the pool
// buffer's own tail, the payload was not copied — exactly when the header
// fits the room, no plug-in replaced Data and NoZeroCopy is off.
func TestSendPieceFramesInPlace(t *testing.T) {
	longName := strings.Repeat("n", 300)
	cases := []struct {
		name       string
		varName    string
		size       int
		noZeroCopy bool
		plugin     evpath.FilterFunc
		inPlace    bool
	}{
		{name: "empty", varName: "zion", size: 0, inPlace: true},
		{name: "one byte", varName: "zion", size: 1, inPlace: true},
		{name: "1 MiB", varName: "zion", size: 1 << 20, inPlace: true},
		{name: "power of two", varName: "zion", size: 4096, inPlace: true},
		{name: "300-byte name", varName: longName, size: 1000},
		{name: "NoZeroCopy", varName: "zion", size: 1000, noZeroCopy: true},
		{name: "plug-in replaces Data", varName: "zion", size: 1000,
			plugin: func(ev *evpath.Event) (*evpath.Event, error) {
				out := *ev
				out.Data = append([]byte("conditioned:"), ev.Data...)
				return &out, nil
			}},
		{name: "plug-in keeps Data", varName: "zion", size: 1000, inPlace: true,
			plugin: func(ev *evpath.Event) (*evpath.Event, error) {
				ev.Meta["dc.seen"] = true
				return ev, nil
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := &captureConn{}
			g := &WriterGroup{
				NWriters:    1,
				opts:        (&Options{NoZeroCopy: tc.noZeroCopy}).withDefaults(),
				conns:       [][]evpath.Conn{{conn}},
				payloadPool: shm.NewBufferPool(0),
			}
			if tc.plugin != nil {
				g.plugins.install("p", tc.plugin)
			}
			buf, err := g.payloadPool.Get(headerRoom + tc.size)
			if err != nil {
				t.Fatal(err)
			}
			stamp(buf[headerRoom:], 1, 0)
			ev := &evpath.Event{
				Meta: evpath.Record{
					"kind": msgData, "step": int64(3), "var": tc.varName,
					"varkind": int64(ProcessGroupVar), "elemsize": int64(1), "writer": int64(0),
				},
				Data: buf[headerRoom:],
			}
			// The reference: what the plug-in chain and the concatenating
			// encoder make of a private copy of the event.
			ref := &evpath.Event{Meta: evpath.Record{}, Data: append([]byte(nil), ev.Data...)}
			for k, v := range ev.Meta {
				ref.Meta[k] = v
			}
			if tc.plugin != nil {
				if ref, err = tc.plugin(ref); err != nil {
					t.Fatal(err)
				}
			}
			want, err := evpath.EncodeEvent(ref)
			if err != nil {
				t.Fatal(err)
			}

			pieces := map[int][]outgoing{0: {{ev: ev, buf: buf, owned: true}}}
			if err := g.sendOutgoing(0, 3, pieces, stepTrace{}); err != nil {
				t.Fatal(err)
			}
			if len(conn.sent) != 1 {
				t.Fatalf("%d messages sent, want 1", len(conn.sent))
			}
			got := conn.sent[0]
			if !bytes.Equal(got, want) {
				t.Fatalf("sent %d bytes that differ from EncodeEvent's %d", len(got), len(want))
			}
			if framedIn(got, buf) != tc.inPlace {
				t.Fatalf("framed in place = %v, want %v", framedIn(got, buf), tc.inPlace)
			}
			if st := g.payloadPool.Stats(); st.BytesInUse != 0 {
				t.Fatalf("%d pool bytes still checked out after the send", st.BytesInUse)
			}
		})
	}
}

// tcpNets returns two connection managers that only meet over loopback
// sockets, each resolving every foreign contact to the other — the
// staging placement in one process.
func tcpNets(t *testing.T) (wnet, rnet *evpath.Net) {
	t.Helper()
	wnet, rnet = evpath.NewNet(nil), evpath.NewNet(nil)
	wadv, err := wnet.ServeTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	radv, err := rnet.ServeTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	wnet.SetResolver(func(string) (string, error) { return radv, nil })
	rnet.SetResolver(func(string) (string, error) { return wadv, nil })
	t.Cleanup(func() { wnet.CloseTCP(); rnet.CloseTCP() })
	return wnet, rnet
}

func overTCP(opts Options) Options {
	opts.Transport = func(w, r int) (evpath.TransportKind, int, int) { return evpath.TCPTransport, 0, 0 }
	return opts
}

// pgVar is one process-group variable of the streams below.
type pgVar struct {
	name string
	size int
}

// pgStream is one writer feeding one reader across loopback: vars
// (stamped per step) plus a scalar "t", for `steps` steps.
type pgStream struct {
	opts    Options
	vars    []pgVar
	steps   int
	install func(*WriterGroup) // before the first step
	flushed func(step int)     // writer side, after EndStep(step) returned
	// inStep runs inside each reader step with the slices the read calls
	// returned, uncopied: they are valid until it returns.
	inStep func(step int, got map[string][]byte)
}

func (ps pgStream) run(t *testing.T, stream string) {
	t.Helper()
	wnet, rnet := tcpNets(t)
	dir := directory.NewMem()
	wg, err := NewWriterGroup(wnet, dir, stream, 1, overTCP(ps.opts), nil)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(rnet, dir, stream, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps.install != nil {
		ps.install(wg)
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		wr := wg.Writer(0)
		src := make([][]byte, len(ps.vars)) // Write copies: one source per variable, restamped
		for i, v := range ps.vars {
			src[i] = make([]byte, v.size)
		}
		for s := 0; s < ps.steps; s++ {
			if err := wr.BeginStep(int64(s)); err != nil {
				t.Error(err)
				return
			}
			for i, v := range ps.vars {
				stamp(src[i], i, s)
				if err := wr.Write(VarMeta{Name: v.name, Kind: ProcessGroupVar, ElemSize: 1}, src[i]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := wr.Write(VarMeta{Name: "t", Kind: ScalarVar, ElemSize: 8}, []byte(fmt.Sprintf("step%04d", s))); err != nil {
				t.Error(err)
				return
			}
			if err := wr.EndStep(); err != nil {
				t.Error(err)
				return
			}
			if ps.flushed != nil {
				ps.flushed(s)
			}
		}
		if err := wg.Close(); err != nil {
			t.Error(err)
		}
	}()

	rd := rg.Reader(0)
	if err := rd.SelectProcessGroups([]int{0}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < ps.steps; s++ {
		step, ok := rd.BeginStep()
		if !ok || step != int64(s) {
			t.Fatalf("reader: step %d ok=%v, want %d", step, ok, s)
		}
		got := map[string][]byte{}
		for _, v := range ps.vars {
			groups, err := rd.ReadProcessGroups(v.name)
			if err != nil {
				t.Fatal(err)
			}
			got[v.name] = groups[0]
		}
		if got["t"], err = rd.ReadScalar("t"); err != nil {
			t.Fatal(err)
		}
		if ps.inStep != nil {
			ps.inStep(s, got)
		}
		if err := rd.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := rd.BeginStep(); ok {
		t.Fatal("reader: expected end of stream")
	}
	<-writerDone
	rg.Close()
	requirePayloadPoolDrained(t, wg)
}

// TestHeaderRoomFallbackDelivers streams, across a real socket, a variable
// framed in place next to two that must fall back to the concatenating
// encode — a 300-byte name whose header outgrows the room, and one whose
// Data a writer-side plug-in replaces. The reader must see exactly the
// bytes a NoZeroCopy run (every message concatenated) delivers.
func TestHeaderRoomFallbackDelivers(t *testing.T) {
	longName := strings.Repeat("v", 300)
	vars := []pgVar{{"plain", 70_000}, {longName, 70_000}, {"conditioned", 70_000}}
	install := func(wg *WriterGroup) {
		wg.plugins.install("reverse", func(ev *evpath.Event) (*evpath.Event, error) {
			if name, _ := ev.Meta.GetString("var"); name != "conditioned" {
				return ev, nil
			}
			out := *ev
			out.Data = make([]byte, len(ev.Data))
			for i, b := range ev.Data {
				out.Data[len(ev.Data)-1-i] = b
			}
			return &out, nil
		})
	}
	const steps = 3
	deliver := func(stream string, opts Options) map[string][]byte {
		last := map[string][]byte{}
		pgStream{opts: opts, vars: vars, steps: steps, install: install,
			inStep: func(_ int, got map[string][]byte) {
				for name, b := range got {
					last[name] = append([]byte(nil), b...)
				}
			}}.run(t, stream)
		return last
	}
	inPlace := deliver("fallback-zc", Options{})
	concat := deliver("fallback-nozc", Options{NoZeroCopy: true})

	for i, v := range vars {
		want := make([]byte, v.size)
		stamp(want, i, steps-1)
		if v.name == "conditioned" {
			for l, r := 0, len(want)-1; l < r; l, r = l+1, r-1 {
				want[l], want[r] = want[r], want[l]
			}
		}
		if !bytes.Equal(inPlace[v.name], want) {
			t.Errorf("%.12s: delivered bytes differ from what was written", v.name)
		}
		if !bytes.Equal(inPlace[v.name], concat[v.name]) {
			t.Errorf("%.12s: in-place and NoZeroCopy runs delivered different bytes", v.name)
		}
	}
	if want := fmt.Sprintf("step%04d", steps-1); string(inPlace["t"]) != want || string(concat["t"]) != want {
		t.Errorf("scalar = %q / %q, want %q", inPlace["t"], concat["t"], want)
	}
}

// TestTCPPiecesIntactWhileWriterRunsAhead: the bytes ReadProcessGroups
// and ReadScalar return sit in receive-pool buffers; they must stay
// intact until this rank's EndStep even though the writer is two steps
// further and its frames keep arriving on the same socket — only EndStep
// may recycle a step's buffers. (The writer is synchronous, but a sync
// EndStep returns once the socket took the step: nothing but the
// transport's buffering holds it back from running ahead of a reader
// that sits in a step.)
func TestTCPPiecesIntactWhileWriterRunsAhead(t *testing.T) {
	const steps, ahead = 8, 2
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	flushed := -1
	vars := []pgVar{{"a", 96 << 10}, {"b", 96 << 10}}
	pgStream{
		vars: vars, steps: steps,
		flushed: func(step int) {
			mu.Lock()
			flushed = step
			cond.Broadcast()
			mu.Unlock()
		},
		inStep: func(step int, got map[string][]byte) {
			// Sit in the step until the writer has flushed two more.
			mu.Lock()
			for flushed < step+ahead && flushed < steps-1 {
				cond.Wait()
			}
			mu.Unlock()
			for i, v := range vars {
				want := make([]byte, v.size)
				stamp(want, i, step)
				if !bytes.Equal(got[v.name], want) {
					t.Fatalf("step %d: %q changed under the reader before EndStep", step, v.name)
				}
			}
			if want := fmt.Sprintf("step%04d", step); string(got["t"]) != want {
				t.Fatalf("step %d: scalar = %q, want %q", step, got["t"], want)
			}
		},
	}.run(t, "ahead")
}

// TestTCPSteadyStateAllocation: once pools are warm, a process-group
// stream across loopback allocates a small fraction of what it moves —
// no per-message encode buffer, no per-frame receive buffer. (The parent
// of this change allocated twice the payload per step.) The writer is
// held to one step ahead of the reader, so the deepest the pools ever get
// is reached during warm-up.
func TestTCPSteadyStateAllocation(t *testing.T) {
	const warm, timed, size = 4, 16, 2 << 20
	var before, after runtime.MemStats
	read := make(chan struct{}, warm+timed)
	pgStream{
		opts: Options{Caching: CachingAll}, vars: []pgVar{{"zion", size}}, steps: warm + timed,
		flushed: func(int) { <-read },
		inStep: func(step int, _ map[string][]byte) {
			switch step {
			case warm - 1:
				runtime.ReadMemStats(&before)
			case warm + timed - 1:
				runtime.ReadMemStats(&after)
			}
			read <- struct{}{}
		},
	}.run(t, "steady")
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / timed
	t.Logf("%.0f bytes allocated per %d-byte step (%.2f%%)", perStep, size, 100*perStep/size)
	if perStep > 0.05*size {
		t.Fatalf("steady state allocates %.0f bytes per step, over 5%% of the %d-byte payload", perStep, size)
	}
}

// TestPayloadPoolDrainsAcrossModes: Put keys on cap(buf), so the pool's
// in-use count only returns to zero if the whole buffer — header room
// included — is what comes back on every path. Sync and async streams
// over chan, shm (hand-off) and tcp; the reconfigured streams
// assert the same in reconfig_test.go.
func TestPayloadPoolDrainsAcrossModes(t *testing.T) {
	shmT := func(w, r int) (evpath.TransportKind, int, int) { return evpath.ShmTransport, 0, 0 }
	for name, opts := range map[string]Options{
		"sync":     {},
		"async":    {Async: true},
		"shm":      {Transport: shmT},
		"shm-nozc": {Transport: shmT, NoZeroCopy: true},
	} {
		t.Run(name, func(t *testing.T) { runMxNSplit(t, 3, 2, opts, 4) }) // asserts the drain
	}
	for name, opts := range map[string]Options{
		"tcp":       {},
		"tcp-async": {Async: true},
	} {
		t.Run(name, func(t *testing.T) {
			pgStream{opts: opts, vars: []pgVar{{"p", 50_000}}, steps: 4}.run(t, "drain-"+name) // asserts the drain
		})
	}
}
