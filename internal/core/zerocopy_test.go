package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"flexio/internal/evpath"
	"flexio/internal/flight"
	"flexio/internal/monitor"
	"flexio/internal/ndarray"
)

// runShmRedist moves a 2-D global array from 4 writers to 2 readers with
// every data connection on the shm transport, journaled, and verifies
// every reader receives exactly the reference bytes. It returns the
// writer monitor report, the harvested per-channel shm gauges, and the
// flight-recorder snapshot — the three vantage points the zero-copy
// assertions below need.
func runShmRedist(t *testing.T, noZC bool, steps int) (wrep, shmRep monitor.Report, evs []flight.Event) {
	t.Helper()
	const nw, nr = 4, 2
	h := newHarness(t)
	j := flight.NewJournal(0)
	h.net.SetJournal(j)
	shape := []int64{64, 64}
	global := ndarray.BoxFromShape(shape)
	wdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nw, 2))
	rdec, _ := ndarray.BlockDecompose(shape, ndarray.FactorGrid(nr, 2))
	wm := monitor.New("writers")
	opts := Options{
		NoZeroCopy: noZC,
		Transport: func(w, r int) (evpath.TransportKind, int, int) {
			return evpath.ShmTransport, 0, 0
		},
	}
	stream := fmt.Sprintf("zc-redist-%v", noZC)
	wg, err := NewWriterGroup(h.net, h.dir, stream, nw, opts, wm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewReaderGroup(h.net, h.dir, stream, nr, nil)
	if err != nil {
		t.Fatal(err)
	}
	wg.SetJournal(j)
	rg.SetJournal(j)

	var writers, readers sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			wr := wg.Writer(w)
			for s := 0; s < steps; s++ {
				if err := wr.BeginStep(int64(s)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				meta := VarMeta{
					Name: "field", Kind: GlobalArrayVar, ElemSize: 8,
					GlobalShape: shape, Box: wdec.Boxes[w],
				}
				if err := wr.Write(meta, fillArrayBytes(wdec.Boxes[w], global)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if err := wr.EndStep(); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	for r := 0; r < nr; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			rd := rg.Reader(r)
			if err := rd.SelectArray("field", rdec.Boxes[r]); err != nil {
				t.Errorf("reader %d: %v", r, err)
				return
			}
			for s := 0; s < steps; s++ {
				if _, ok := rd.BeginStep(); !ok {
					t.Errorf("reader %d: unexpected EOS at step %d", r, s)
					return
				}
				data, box, err := rd.ReadArray("field")
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if !bytes.Equal(data, fillArrayBytes(box, global)) {
					t.Errorf("reader %d step %d: data mismatch", r, s)
					return
				}
				rd.EndStep()
			}
		}()
	}
	writers.Wait()
	if err := wg.Close(); err != nil {
		t.Fatalf("writer close: %v", err)
	}
	readers.Wait()
	rg.Close()

	shmMon := monitor.New("shm")
	h.net.ReportShm(shmMon, "shm")
	return wm.Snapshot(), shmMon.Snapshot(), j.Snapshot()
}

// TestZeroCopySameNodeDelivery is the acceptance test for the same-node
// hand-off: against the eager (NoZeroCopy) run it proves the payload
// bytes stopped being copied through channel memory, the writer counted
// hits instead of fallbacks, and the journaled send.shm edge collapsed
// to header-passing cost — with both runs producing byte-identical
// reader output (each is checked against the reference pattern).
func TestZeroCopySameNodeDelivery(t *testing.T) {
	const steps = 3
	// 4 writer boxes of 32×32 float64, each landing in exactly one reader
	// half: 4 pieces per step, 8 KiB of payload each.
	const piecesPerStep = 4
	const pieceBytes = 32 * 32 * 8

	wZC, shmZC, evZC := runShmRedist(t, false, steps)
	wEA, shmEA, evEA := runShmRedist(t, true, steps)

	// Writer-side gauges: every same-node array piece crossed by
	// reference, and none did once zero-copy was disabled.
	if hits := wZC.Counts["shm.zerocopy_hits"]; hits < piecesPerStep*steps {
		t.Fatalf("zero-copy hits = %d, want >= %d", hits, piecesPerStep*steps)
	}
	if fb := wZC.Counts["shm.zerocopy_fallbacks"]; fb != 0 {
		t.Fatalf("zero-copy run recorded %d fallbacks", fb)
	}
	if hits := wEA.Counts["shm.zerocopy_hits"]; hits != 0 {
		t.Fatalf("NoZeroCopy run recorded %d hits", hits)
	}
	if fb := wEA.Counts["shm.zerocopy_fallbacks"]; fb < piecesPerStep*steps {
		t.Fatalf("NoZeroCopy fallbacks = %d, want >= %d", fb, piecesPerStep*steps)
	}

	// Channel-level copy accounting: the eager run memcpys every payload
	// through channel memory (twice: copy-in + copy-out); the handle run
	// copies only headers, so the gap must cover the full payload volume.
	sum := func(r monitor.Report, suffix string) int64 {
		var s int64
		for k, v := range r.Gauges {
			if strings.HasSuffix(k, suffix) {
				s += v
			}
		}
		return s
	}
	if n := sum(shmZC, ".handle"); n < piecesPerStep*steps {
		t.Fatalf("shm channels report %d handle sends, want >= %d", n, piecesPerStep*steps)
	}
	zcCopied, eaCopied := sum(shmZC, ".copied_bytes"), sum(shmEA, ".copied_bytes")
	if gap := eaCopied - zcCopied; gap < piecesPerStep*steps*pieceBytes {
		t.Fatalf("copied-bytes gap eager-zc = %d (eager %d, zc %d), want >= %d — payloads were not handed off by reference",
			gap, eaCopied, zcCopied, piecesPerStep*steps*pieceBytes)
	}

	// Flight recorder: the hand-off is journaled, and the core send.shm
	// edge shrinks from payload-sized to header-sized.
	count := func(evs []flight.Event, point string) (n int) {
		for i := range evs {
			if evs[i].Point == point {
				n++
			}
		}
		return n
	}
	maxSendBytes := func(evs []flight.Event) (m int64) {
		for i := range evs {
			if evs[i].Point == "send.shm" && evs[i].Bytes > m {
				m = evs[i].Bytes
			}
		}
		return m
	}
	if n := count(evZC, "shm.send.handle"); n < piecesPerStep*steps {
		t.Fatalf("journal shows %d shm.send.handle crossings, want >= %d", n, piecesPerStep*steps)
	}
	if n := count(evEA, "shm.send.handle"); n != 0 {
		t.Fatalf("NoZeroCopy run journaled %d handle crossings", n)
	}
	if m := maxSendBytes(evZC); m >= pieceBytes {
		t.Fatalf("zero-copy send.shm edge still carries %d bytes, want header-only (< %d)", m, pieceBytes)
	}
	if m := maxSendBytes(evEA); m < pieceBytes {
		t.Fatalf("eager send.shm edge carries %d bytes, expected >= one payload (%d)", m, pieceBytes)
	}

	// The collapsed edge still lands on every step's critical-path
	// analysis — the proof artifact the paper-style evaluation reads.
	an := flight.Analyze(evZC)
	if len(an.Steps) < steps {
		t.Fatalf("critical-path analysis covers %d steps, want >= %d", len(an.Steps), steps)
	}
	for i := range an.Steps {
		if an.Steps[i].EdgeSum() <= 0 {
			t.Fatalf("step %d has an empty critical path", an.Steps[i].Step)
		}
	}

	// The new gauges surface through the monitor's /metrics rendering.
	var buf bytes.Buffer
	if err := wZC.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"shm.zerocopy_hits", "plan.map_ns", "plan.cache.build"} {
		if !strings.Contains(buf.String(), k) {
			t.Fatalf("/metrics rendering lacks %q:\n%s", k, buf.String())
		}
	}
}
