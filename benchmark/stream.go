package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flexio/internal/core"
	"flexio/internal/directory"
	"flexio/internal/evpath"
	"flexio/internal/flexnode"
	"flexio/internal/flight"
	"flexio/internal/monitor"
)

// attached is what a run hangs on the stream besides the workload: the
// benchmark's own boundary wrappers (traced run) or the system's monitor
// and flight journal (instrumented run). The zero value is the untraced
// run the end-to-end metrics come from.
type attached struct {
	tr      *tracer
	mon     *monitor.Monitor
	journal *flight.Journal
}

// stream is one cold bring-up of a workload: directory, connection
// managers, both groups, selections and (for the query) the plug-in.
type stream struct {
	in         *inputs
	dir        *directory.Mem
	wnet, rnet *evpath.Net
	wg         *core.WriterGroup
	rg         *core.ReaderGroup
}

func open(in *inputs, at attached) (s *stream, err error) {
	s = &stream{in: in, dir: directory.NewMem()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	kind := in.spec.transport
	s.wnet = evpath.NewNet(nil)
	s.rnet = s.wnet
	if kind == evpath.TCPTransport {
		// Staging: the two groups sit on two connection managers that only
		// meet over loopback sockets; contacts resolve through the shared
		// directory, as between two flexnode daemons.
		s.rnet = evpath.NewNet(nil)
		for _, n := range []*evpath.Net{s.wnet, s.rnet} {
			(&flexnode.Contacts{Dir: s.dir}).Bind(n)
			if _, err := n.ServeTCP("127.0.0.1:0", nil); err != nil {
				return nil, err
			}
		}
	}
	opts := core.Options{
		Caching:   core.CachingAll,
		Transport: func(w, r int) (evpath.TransportKind, int, int) { return kind, 0, 0 },
	}
	if at.tr != nil {
		opts.WrapConn = at.tr.wrap
	}
	if s.wg, err = core.NewWriterGroup(s.wnet, s.dir, "bench", nWriters, opts, at.mon); err != nil {
		return nil, err
	}
	if s.rg, err = core.NewReaderGroup(s.rnet, s.dir, "bench", nReaders, at.mon); err != nil {
		return nil, err
	}
	if at.journal != nil {
		s.wg.SetJournal(at.journal)
		s.rg.SetJournal(at.journal)
	}
	for r := 0; r < nReaders; r++ {
		rd := s.rg.Reader(r)
		if in.spec.processGroups() {
			if err := rd.SelectProcessGroups([]int{r}); err != nil {
				return nil, err
			}
			continue
		}
		for _, v := range in.vars {
			if err := rd.SelectArray(v.name, v.box[r]); err != nil {
				return nil, err
			}
		}
	}
	if in.spec.query {
		if err := s.rg.DeployPluginToWriters(in.plugin); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *stream) close() {
	if s.rg != nil {
		s.rg.Close() //nolint:errcheck // always nil
	}
	if s.wg != nil {
		s.wg.Close() //nolint:errcheck // sync mode: nothing queued to fail
	}
	for _, n := range []*evpath.Net{s.wnet, s.rnet} {
		if n != nil {
			n.CloseTCP()
		}
	}
	s.dir.Close() //nolint:errcheck // always nil
}

// snap is the process state at one edge of the timed window.
type snap struct {
	cpu        time.Duration // user+sys, RUSAGE_SELF
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
}

func takeSnap() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snap{cpu: cpuTime(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcs: ms.NumGC}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runResult is what one run of a stream observed. Steps 0..warmup-1 are
// untimed; the window covers steps warmup..last. All times are offsets
// from the start of the run.
type runResult struct {
	warmup, last int64
	begin        [nWriters][]time.Duration // BeginStep entry, per step
	returned     [nWriters][]time.Duration // EndStep return, per step
	done         [nReaders][]time.Duration // reader EndStep return, per step
	start, end   snap
	attempted    int64 // reader-rank steps that should have been delivered
	failed       int64 // of those, how many were wrong or never arrived
	firstFailure error
}

// run drives the stream closed loop: a writer rank begins step s+1 only
// when its EndStep(s) has returned, with no compute in between. After
// warmup untimed steps the window stays open for duration and closes on a
// step boundary all writer ranks agree on; duration 0 stops after the
// first step (a bring-up). Then the writer group closes and the readers
// drain to end of stream.
func (s *stream) run(warmup int64, duration time.Duration, tr *tracer) (*runResult, error) {
	res := &runResult{warmup: warmup}
	epoch := time.Now()
	if tr != nil {
		tr.epoch = epoch
	}
	// stopAt is the first step that is not written. Rank 0 sets it to s+2
	// once EndStep(s) returned after the deadline: no rank can have begun
	// s+2 by then, because EndStep(s+1) needs rank 0's deposit.
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	if duration <= 0 {
		stopAt.Store(warmup + 1)
	}
	var failMu sync.Mutex
	fail := func(err error) {
		failMu.Lock()
		res.failed++
		if res.firstFailure == nil {
			res.firstFailure = err
		}
		failMu.Unlock()
	}

	writeLoop := func(w int) error {
		wr := s.wg.Writer(w)
		var opened time.Duration
		for step := int64(0); step < stopAt.Load(); step++ {
			if w == 0 && step == warmup {
				res.start = takeSnap()
				opened = time.Since(epoch)
			}
			t0 := time.Since(epoch)
			tb := tr.now()
			if err := wr.BeginStep(step); err != nil {
				return err
			}
			for _, v := range s.in.vars {
				v.stamp(w, step)
				ts := tr.now()
				if err := wr.Write(v.meta[w], v.src[w]); err != nil {
					return err
				}
				tr.span(tr.writer(w), spWrite, step, ts, 0)
			}
			ts := tr.now()
			tr.flushing(step)
			if err := wr.EndStep(); err != nil {
				return err
			}
			t1 := time.Since(epoch)
			tr.span(tr.writer(w), spEndStep, step, ts, 0)
			tr.span(tr.writer(w), spWriterStep, step, tb, 0)
			res.begin[w] = append(res.begin[w], t0)
			res.returned[w] = append(res.returned[w], t1)
			if w == 0 && step >= warmup && stopAt.Load() == math.MaxInt64 && t1-opened >= duration {
				stopAt.Store(step + 2)
			}
		}
		return nil
	}

	var readersLeft atomic.Int32
	readersLeft.Store(nReaders)
	readLoop := func(r int) error {
		rd := s.rg.Reader(r)
		for want := int64(0); ; want++ {
			tb := tr.now()
			step, ok := rd.BeginStep()
			if !ok {
				return nil
			}
			tr.span(tr.reader(r), spReaderWait, step, tb, 0)
			if step != want {
				return fmt.Errorf("reader %d: got step %d, want %d", r, step, want)
			}
			last := stopAt.Load() - 1
			deep := step == warmup || step == last
			for _, v := range s.in.vars {
				ts := tr.now()
				var got []byte
				var err error
				if s.in.spec.processGroups() {
					var groups map[int][]byte
					groups, err = rd.ReadProcessGroups(v.name)
					got = groups[r]
				} else {
					got, _, err = rd.ReadArray(v.name)
				}
				tr.span(tr.reader(r), spRead, step, ts, 0)
				if err == nil {
					err = v.verify(r, step, got, deep)
				}
				if err != nil {
					fail(err)
					break
				}
				if !s.in.spec.processGroups() {
					rd.ReleaseArray(got)
				}
			}
			ts := tr.now()
			if err := rd.EndStep(); err != nil {
				return err
			}
			tr.span(tr.reader(r), spReaderEnd, step, ts, 0)
			tr.span(tr.reader(r), spReaderStep, step, tb, 0)
			res.done[r] = append(res.done[r], time.Since(epoch))
			if step == last && readersLeft.Add(-1) == 0 {
				res.end = takeSnap()
			}
		}
	}

	// Every goroutine reports once; the first error abandons the run (the
	// process is about to exit non-zero, so stragglers are not awaited).
	errc := make(chan error, nWriters+nReaders+1)
	var writers sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			errc <- writeLoop(w)
		}(w)
	}
	for r := 0; r < nReaders; r++ {
		go func(r int) { errc <- readLoop(r) }(r)
	}
	go func() {
		writers.Wait()
		errc <- s.wg.Close()
	}()
	for i := 0; i < cap(errc); i++ {
		if err := <-errc; err != nil {
			return nil, err
		}
	}

	res.last = stopAt.Load() - 1
	res.attempted = (res.last + 1) * nReaders
	for r := range res.done {
		if missing := res.last + 1 - int64(len(res.done[r])); missing > 0 {
			res.failed += missing
			if res.firstFailure == nil {
				res.firstFailure = fmt.Errorf("reader %d: %d steps written but never delivered", r, missing)
			}
		}
	}
	return res, nil
}

// bringUp is one cold set-up: everything from nothing to the first step
// delivered and verified, then torn down.
func bringUp(in *inputs) (time.Duration, error) {
	t0 := time.Now()
	s, err := open(in, attached{})
	if err != nil {
		return 0, err
	}
	res, err := s.run(0, 0, nil)
	s.close()
	if err != nil {
		return 0, err
	}
	if res.failed > 0 {
		return 0, res.firstFailure
	}
	return time.Since(t0), nil
}
