package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexio/internal/evpath"
)

// Span names. A span wraps one public call into the layer it is named
// after; the two step spans are the envelopes the others hang from.
const (
	spWriterStep = "writer.step"         // BeginStep entry to EndStep return: the stall
	spWrite      = "core.write"          // Writer.Write
	spEndStep    = "core.endstep"        // Writer.EndStep
	spSend       = "evpath.send"         // Conn.Send / SendHandle under EndStep
	spReaderStep = "reader.step"         // reader BeginStep entry to EndStep return
	spReaderWait = "core.reader_wait"    // Reader.BeginStep
	spRead       = "core.read"           // ReadArray / ReadProcessGroups
	spReaderEnd  = "core.reader_endstep" // Reader.EndStep
)

type span struct {
	name       string
	step       int64
	start, end time.Duration // offsets from the run's start
	bytes      int           // sends only
}

// lane is the spans one goroutine records. Only its owner appends, so it
// needs no lock: a connection's lane is written by whichever flush worker
// holds that connection, and core's executor orders those.
type lane struct {
	name  string
	spans []span
}

// tracer keeps the traced run's spans in memory until the run is over. A
// nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	epoch   time.Time
	writers [nWriters]lane
	readers [nReaders]lane
	// step is the step being flushed. Writer ranks are never more than one
	// EndStep apart, so every send in flight belongs to it.
	step atomic.Int64

	mu    sync.Mutex
	conns []*lane // in dial order: writer-major, reader-minor
}

func newTracer() *tracer {
	t := &tracer{}
	for w := range t.writers {
		t.writers[w].name = fmt.Sprintf("w%d", w)
	}
	for r := range t.readers {
		t.readers[r].name = fmt.Sprintf("r%d", r)
	}
	return t
}

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

func (t *tracer) writer(w int) *lane {
	if t == nil {
		return nil
	}
	return &t.writers[w]
}

func (t *tracer) reader(r int) *lane {
	if t == nil {
		return nil
	}
	return &t.readers[r]
}

func (t *tracer) flushing(step int64) {
	if t != nil {
		t.step.Store(step)
	}
}

// span records [start, now) on lane l.
func (t *tracer) span(l *lane, name string, step int64, start time.Duration, bytes int) {
	if t != nil {
		l.spans = append(l.spans, span{name: name, step: step, start: start, end: time.Since(t.epoch), bytes: bytes})
	}
}

// wrap is the Options.WrapConn hook. The wrapper must present exactly the
// optional interfaces the inner connection has — core picks the zero-copy
// hand-off by asserting HandleConn and the wire accounting by asserting
// WireConn — or the traced run would measure a different program.
func (t *tracer) wrap(conn evpath.Conn) evpath.Conn {
	t.mu.Lock()
	i := len(t.conns)
	l := &lane{name: fmt.Sprintf("w%d>r%d", i/nReaders, i%nReaders)}
	t.conns = append(t.conns, l)
	t.mu.Unlock()
	base := tracedConn{Conn: conn, t: t, l: l}
	switch inner := conn.(type) {
	case evpath.HandleConn:
		return &tracedHandleConn{tracedConn: base, inner: inner}
	case evpath.WireConn:
		return &tracedWireConn{tracedConn: base, inner: inner}
	}
	return &base
}

// tracedConn times Send; Recv, Close and Transport forward by embedding.
type tracedConn struct {
	evpath.Conn
	t *tracer
	l *lane
}

func (c *tracedConn) Send(msg []byte) error {
	start := c.t.now()
	err := c.Conn.Send(msg)
	c.t.span(c.l, spSend, c.t.step.Load(), start, len(msg))
	return err
}

type tracedHandleConn struct {
	tracedConn
	inner evpath.HandleConn
}

func (c *tracedHandleConn) SendHandle(hdr, payload []byte, release func()) error {
	start := c.t.now()
	err := c.inner.SendHandle(hdr, payload, release)
	c.t.span(c.l, spSend, c.t.step.Load(), start, len(hdr)+len(payload))
	return err
}

func (c *tracedHandleConn) RecvHandle() ([]byte, []byte, func(), error) {
	return c.inner.RecvHandle()
}

type tracedWireConn struct {
	tracedConn
	inner evpath.WireConn
}

func (c *tracedWireConn) WireOverhead() int { return c.inner.WireOverhead() }

// stepTrace is what the spans of one step add up to.
type stepTrace struct {
	write, endstep [nWriters]time.Duration // per writer rank
	flusher        int                     // the rank whose EndStep flushed:
	flushAt        time.Duration           // the one that started last
	sends          []span
	wait, read     [nReaders]time.Duration
	readerEnd      [nReaders]time.Duration
}

// bySteps folds the lanes into per-step sums for steps first..last.
func (t *tracer) bySteps(first, last int64) []stepTrace {
	steps := make([]stepTrace, last-first+1)
	at := func(s span) *stepTrace {
		if s.step < first || s.step > last {
			return nil
		}
		return &steps[s.step-first]
	}
	for w := range t.writers {
		for _, s := range t.writers[w].spans {
			st := at(s)
			switch {
			case st == nil:
			case s.name == spWrite:
				st.write[w] += s.end - s.start
			case s.name == spEndStep:
				st.endstep[w] = s.end - s.start
				if s.start >= st.flushAt {
					st.flusher, st.flushAt = w, s.start
				}
			}
		}
	}
	for _, l := range t.conns {
		for _, s := range l.spans {
			if st := at(s); st != nil {
				st.sends = append(st.sends, s)
			}
		}
	}
	for r := range t.readers {
		for _, s := range t.readers[r].spans {
			st := at(s)
			switch {
			case st == nil:
			case s.name == spReaderWait:
				st.wait[r] = s.end - s.start
			case s.name == spRead:
				st.read[r] += s.end - s.start
			case s.name == spReaderEnd:
				st.readerEnd[r] = s.end - s.start
			}
		}
	}
	return steps
}

// covered is the time at least one of the spans was open: what a parent
// loses to children that run in parallel.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, reach time.Duration
	for _, s := range spans {
		if s.end <= reach {
			continue
		}
		if s.start > reach {
			reach = s.start
		}
		total += s.end - reach
		reach = s.end
	}
	return total
}

// dump writes every span as one JSON line: id, parent id (0 for a step
// envelope), name, lane, step, start and end in ns from the run's start,
// and bytes for sends. A send's parent is the EndStep that flushed it.
func (t *tracer) dump(path, workload string) error {
	var lanes []*lane
	for i := range t.writers {
		lanes = append(lanes, &t.writers[i])
	}
	for i := range t.readers {
		lanes = append(lanes, &t.readers[i])
	}
	lanes = append(lanes, t.conns...)

	// Ids number the spans in lane order. First pass: find each step's
	// envelopes and the EndStep that started last, which did the flush.
	type key struct {
		lane *lane
		step int64
	}
	type flush struct {
		id    int
		start time.Duration
	}
	envelope := map[key]int{}
	flushedBy := map[int64]flush{}
	id := 0
	for _, l := range lanes {
		for _, s := range l.spans {
			id++
			switch s.name {
			case spWriterStep, spReaderStep:
				envelope[key{l, s.step}] = id
			case spEndStep:
				if cur, ok := flushedBy[s.step]; !ok || s.start >= cur.start {
					flushedBy[s.step] = flush{id, s.start}
				}
			}
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"epoch_unix_ns\":%d}\n", workload, t.epoch.UnixNano())
	id = 0
	for _, l := range lanes {
		for _, s := range l.spans {
			id++
			parent := 0
			switch s.name {
			case spWriterStep, spReaderStep:
			case spSend:
				parent = flushedBy[s.step].id
			default:
				parent = envelope[key{l, s.step}]
			}
			fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"lane\":%q,\"step\":%d,\"start_ns\":%d,\"end_ns\":%d,\"bytes\":%d}\n",
				id, parent, s.name, l.name, s.step, s.start.Nanoseconds(), s.end.Nanoseconds(), s.bytes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
