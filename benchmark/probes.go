package main

import (
	"fmt"
	"runtime"
	"time"

	"flexio/internal/core"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/ndarray"
)

// Layer probes: each replays, on one goroutine (two for a transport
// pair), the calls a workload makes into one layer, through that layer's
// public functions only.

// nProbes is how many timed measurements the probes below make in all
// (ndarray 3, codec 2, tcp 5, chan 2, shm 3, dcplugin 2, directory 1);
// they share the probe budget equally.
const nProbes = 18

// cost is what one probed call costs.
type cost struct {
	seconds float64 // per call
	allocs  float64 // per call
	bytes   float64 // allocated, per call
}

// repeat calls fn for at least d and reports the mean cost per call.
func repeat(d time.Duration, fn func() error) (cost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	calls := 0
	for time.Since(start) < d {
		if err := fn(); err != nil {
			return cost{}, err
		}
		calls++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(calls)
	return cost{
		seconds: elapsed.Seconds() / n,
		allocs:  float64(after.Mallocs-before.Mallocs) / n,
		bytes:   float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

// probe runs every layer probe for the workload within budget and returns
// the P rows. Layers the workload bypasses report zero.
func probe(in *inputs, budget time.Duration) (values, error) {
	out := values{}
	d := budget / nProbes
	for _, p := range []func(*inputs, time.Duration, values) error{
		probeNdarray, probeCodec, probeTCP, probeChan, probeShm, probePlugin, probeDirectory,
	} {
		if err := p(in, d, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeNdarray replays the pack and unpack plans of one S3D step: every
// (species, writer, reader) overlap, as core's plan caches hold them.
func probeNdarray(in *inputs, d time.Duration, out values) error {
	for _, name := range []string{"pieces_per_step", "pack_ms_per_step", "unpack_ms_per_step", "pack_gbps", "map_us"} {
		out["ndarray."+name] = 0
	}
	if in.spec.processGroups() {
		return nil // process groups bypass ndarray
	}
	type piece struct {
		pack, unpack *ndarray.Plan
		src, asm     []byte
		packed       []byte
	}
	var pieces []piece
	var wboxes, rboxes []ndarray.Box
	for _, v := range in.vars {
		for w := range v.src {
			for r := range v.expect {
				wbox, rbox := v.meta[w].Box, v.box[r]
				ov, ok := wbox.Intersect(rbox)
				if !ok {
					continue
				}
				pack, err := ndarray.NewPackPlan(wbox, ov, v.meta[w].ElemSize)
				if err != nil {
					return err
				}
				unpack, err := ndarray.NewUnpackPlan(rbox, ov, v.meta[w].ElemSize)
				if err != nil {
					return err
				}
				pieces = append(pieces, piece{
					pack: pack, unpack: unpack, src: v.src[w],
					asm: make([]byte, len(v.expect[r])), packed: make([]byte, pack.Bytes()),
				})
			}
		}
		if wboxes == nil {
			for w := range v.meta {
				wboxes = append(wboxes, v.meta[w].Box)
			}
			rboxes = v.box[:]
		}
	}
	pack, err := repeat(d, func() error {
		for i := range pieces {
			if err := pieces[i].pack.Execute(pieces[i].packed, pieces[i].src); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	unpack, err := repeat(d, func() error {
		for i := range pieces {
			if err := pieces[i].unpack.Execute(pieces[i].asm, pieces[i].packed); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A plan-cache miss maps one variable: index the reader boxes, then
	// one overlap query per writer rank.
	var sink []ndarray.OverlapTarget
	mapping, err := repeat(d, func() error {
		ix := (&ndarray.Decomposition{Boxes: rboxes}).Index()
		for _, wbox := range wboxes {
			sink = ix.AppendOverlaps(sink, wbox)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["ndarray.pieces_per_step"] = float64(len(pieces))
	out["ndarray.pack_ms_per_step"] = pack.seconds * 1e3
	out["ndarray.unpack_ms_per_step"] = unpack.seconds * 1e3
	out["ndarray.pack_gbps"] = float64(in.stepBytes) / pack.seconds / 1e9
	out["ndarray.map_us"] = mapping.seconds * 1e6
	return nil
}

// stepEvents builds the events core puts on the wire for one step of the
// workload: one data event per piece with core's meta record, then one
// step-done marker per writer-reader pair. Over shm the array payloads
// cross by reference, so only the meta header is encoded.
func stepEvents(in *inputs) []*evpath.Event {
	var evs []*evpath.Event
	headerOnly := in.spec.transport == evpath.ShmTransport
	for _, v := range in.vars {
		for w := range v.src {
			for r := range v.expect {
				meta := evpath.Record{
					"kind": "data", "step": int64(1), "var": v.name,
					"varkind": int64(v.meta[w].Kind), "elemsize": int64(v.meta[w].ElemSize),
					"writer": int64(w),
				}
				var data []byte
				switch {
				case !in.spec.processGroups():
					ov, ok := v.meta[w].Box.Intersect(v.box[r])
					if !ok {
						continue
					}
					meta["ndims"] = int64(ov.NDims())
					meta["box"] = append(append([]int64(nil), ov.Lo...), ov.Hi...)
					if !headerOnly {
						data = make([]byte, ov.NumElements()*int64(v.meta[w].ElemSize))
					}
				case r != w:
					continue // reader r claims writer r's groups only
				case in.spec.query:
					meta["dc.elements"] = int64(len(v.expect[r]) / 8)
					meta["dc.plugin"] = in.plugin.Name
					data = v.expect[r]
				default:
					data = v.src[w]
				}
				evs = append(evs, &evpath.Event{Meta: meta, Data: data})
			}
		}
	}
	for w := 0; w < nWriters; w++ {
		for r := 0; r < nReaders; r++ {
			evs = append(evs, &evpath.Event{Meta: evpath.Record{"kind": "step-done", "step": int64(1), "writer": int64(w)}})
		}
	}
	return evs
}

func probeCodec(in *inputs, d time.Duration, out values) error {
	evs := stepEvents(in)
	bufs := make([][]byte, len(evs))
	enc, err := repeat(d, func() error {
		for i, ev := range evs {
			var err error
			if bufs[i], err = evpath.EncodeEvent(ev); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	dec, err := repeat(d, func() error {
		for _, buf := range bufs {
			if _, err := evpath.DecodeEvent(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(len(evs))
	out["evpath.encode_ms_per_step"] = enc.seconds * 1e3
	out["evpath.decode_ms_per_step"] = dec.seconds * 1e3
	out["evpath.encode_allocs_per_msg"] = enc.allocs / n
	out["evpath.decode_allocs_per_msg"] = dec.allocs / n
	return nil
}

// flow is what one direction of a connection pair sustained.
type flow struct {
	msgsPerSec float64
	gbps       float64
	allocs     float64 // per message, both ends
	bytes      float64 // allocated per message, both ends
}

// pump calls send for d while a second goroutine calls recv until it
// fails, then closes a; the flow ends when b has drained. size is what one
// message carries.
func pump(a, b evpath.Conn, size int, d time.Duration, send, recv func() error) (flow, error) {
	received := make(chan int)
	go func() {
		n := 0
		for recv() == nil {
			n++
		}
		received <- n
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sent := 0
	var sendErr error
	for time.Since(start) < d && sendErr == nil {
		sendErr = send()
		sent++
	}
	a.Close()
	n := <-received
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	b.Close()
	if sendErr != nil {
		return flow{}, sendErr
	}
	if n != sent {
		return flow{}, fmt.Errorf("%s pair: sent %d messages of %d bytes, received %d", a.Transport(), sent, size, n)
	}
	return flow{
		msgsPerSec: float64(n) / elapsed,
		gbps:       float64(n) * float64(size) / elapsed / 1e9,
		allocs:     float64(after.Mallocs-before.Mallocs) / float64(n),
		bytes:      float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}, nil
}

// pumpCopies is pump over the copying Send/Recv path.
func pumpCopies(a, b evpath.Conn, size int, d time.Duration) (flow, error) {
	msg := make([]byte, size)
	return pump(a, b, size, d,
		func() error { return a.Send(msg) },
		func() error { _, err := b.Recv(); return err })
}

// localPair dials one in-process connection of the given kind.
func localPair(kind evpath.TransportKind) (a, b evpath.Conn, err error) {
	net := evpath.NewNet(nil)
	l, err := net.Listen("probe")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	if a, err = net.Dial("probe", kind, 0, 0); err != nil {
		return nil, nil, err
	}
	b, _ = l.Accept()
	return a, b, nil
}

// tcpPeers is a serving Net with one listener and a way to dial it from a
// fresh client Net over loopback.
type tcpPeers struct {
	server *evpath.Net
	l      *evpath.Listener
	addr   string
}

func newTCPPeers() (*tcpPeers, error) {
	p := &tcpPeers{server: evpath.NewNet(nil)}
	var err error
	if p.addr, err = p.server.ServeTCP("127.0.0.1:0", nil); err != nil {
		return nil, err
	}
	if p.l, err = p.server.Listen("probe"); err != nil {
		p.server.CloseTCP()
		return nil, err
	}
	return p, nil
}

// dial opens one logical channel from a new client Net (a cold dial: the
// physical connect and the open handshake).
func (p *tcpPeers) dial() (client *evpath.Net, a, b evpath.Conn, err error) {
	client = evpath.NewNet(nil)
	client.SetResolver(func(string) (string, error) { return p.addr, nil })
	if a, err = client.Dial("probe", evpath.TCPTransport, 0, 0); err != nil {
		client.CloseTCP()
		return nil, nil, nil, err
	}
	b, _ = p.l.Accept()
	return client, a, b, nil
}

func (p *tcpPeers) close() {
	p.l.Close()
	p.server.CloseTCP()
}

func probeTCP(_ *inputs, d time.Duration, out values) error {
	p, err := newTCPPeers()
	if err != nil {
		return err
	}
	defer p.close()
	flows := map[int]flow{}
	for _, size := range []int{64, 4 << 10, 1 << 20, 16 << 20} {
		client, a, b, err := p.dial()
		if err != nil {
			return err
		}
		flows[size], err = pumpCopies(a, b, size, d)
		client.CloseTCP()
		if err != nil {
			return err
		}
	}
	dial, err := repeat(d, func() error {
		client, a, b, err := p.dial()
		if err != nil {
			return err
		}
		a.Close()
		b.Close()
		client.CloseTCP()
		return nil
	})
	if err != nil {
		return err
	}
	out["evpath.tcp.msgs_per_s.64B"] = flows[64].msgsPerSec
	out["evpath.tcp.msgs_per_s.4KiB"] = flows[4<<10].msgsPerSec
	out["evpath.tcp.gbps.1MiB"] = flows[1<<20].gbps
	out["evpath.tcp.gbps.16MiB"] = flows[16<<20].gbps
	out["evpath.tcp.allocs_per_msg.64B"] = flows[64].allocs
	out["evpath.tcp.alloc_bytes_per_msg.16MiB"] = flows[16<<20].bytes
	out["evpath.tcp.dial_ms"] = dial.seconds * 1e3
	return nil
}

// probeLocal pumps small and large messages through one in-process
// transport, reporting under prefix.
func probeLocal(kind evpath.TransportKind, prefix string, d time.Duration, out values) error {
	for _, size := range []int{64, 1 << 20} {
		a, b, err := localPair(kind)
		if err != nil {
			return err
		}
		f, err := pumpCopies(a, b, size, d)
		if err != nil {
			return err
		}
		if size == 64 {
			out[prefix+"msgs_per_s.64B"] = f.msgsPerSec
		} else {
			out[prefix+"gbps.1MiB"] = f.gbps
		}
	}
	return nil
}

func probeChan(_ *inputs, d time.Duration, out values) error {
	return probeLocal(evpath.ChanTransport, "evpath.chan.", d, out)
}

func probeShm(_ *inputs, d time.Duration, out values) error {
	if err := probeLocal(evpath.ShmTransport, "shm.", d, out); err != nil {
		return err
	}
	// The hand-off path as s3d_shm drives it: a meta header by copy, a
	// piece-sized payload by reference, returned to the sender on release.
	a, b, err := localPair(evpath.ShmTransport)
	if err != nil {
		return err
	}
	ha, hb := a.(evpath.HandleConn), b.(evpath.HandleConn)
	hdr := make([]byte, 128)
	const payloadSize = 40 << 10
	// Twice the queue's 256 entries, so the sender never waits for a buffer
	// before the queue is full.
	free := make(chan []byte, 512)
	for i := 0; i < cap(free); i++ {
		free <- make([]byte, payloadSize)
	}
	f, err := pump(a, b, payloadSize, d,
		func() error {
			payload := <-free
			return ha.SendHandle(hdr, payload, func() { free <- payload })
		},
		func() error {
			_, _, release, err := hb.RecvHandle()
			if err == nil {
				release()
			}
			return err
		})
	if err != nil {
		return err
	}
	out["shm.handle_msgs_per_s"] = f.msgsPerSec
	return nil
}

// probePlugin compiles the query as the writer coordinator does on
// deployment, then runs it over one step's process groups.
func probePlugin(in *inputs, d time.Duration, out values) error {
	for _, name := range []string{"compile_ms", "filter_ms_per_step", "filter_mbps", "filter_allocs_per_kelem"} {
		out["dcplugin."+name] = 0
	}
	if !in.spec.query {
		return nil
	}
	compile, err := repeat(d, func() error {
		_, err := in.plugin.Filter()
		return err
	})
	if err != nil {
		return err
	}
	filter, err := in.plugin.Filter()
	if err != nil {
		return err
	}
	var evs []*evpath.Event
	for _, v := range in.vars {
		for w := range v.src {
			evs = append(evs, &evpath.Event{
				Meta: evpath.Record{
					"kind": "data", "step": int64(1), "var": v.name,
					"varkind": int64(core.ProcessGroupVar), "elemsize": int64(8), "writer": int64(w),
				},
				Data: v.src[w],
			})
		}
	}
	run, err := repeat(d, func() error {
		for _, ev := range evs {
			if _, err := filter(ev); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["dcplugin.compile_ms"] = compile.seconds * 1e3
	out["dcplugin.filter_ms_per_step"] = run.seconds * 1e3
	out["dcplugin.filter_mbps"] = float64(in.stepBytes) / run.seconds / 1e6
	out["dcplugin.filter_allocs_per_kelem"] = run.allocs / (float64(in.stepBytes) / 8 / 1e3)
	return nil
}

func probeDirectory(_ *inputs, d time.Duration, out values) error {
	dir := directory.NewMem()
	defer dir.Close() //nolint:errcheck // always nil
	c, err := repeat(d, func() error {
		if err := dir.Register("bench", "bench.coord"); err != nil {
			return err
		}
		_, err := dir.WaitLookup("bench", time.Second)
		return err
	})
	if err != nil {
		return err
	}
	out["directory.register_lookup_us"] = c.seconds * 1e6
	return nil
}
