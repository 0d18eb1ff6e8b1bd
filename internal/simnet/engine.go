// Package simnet provides a deterministic discrete-event simulation engine
// and a fluid-flow network contention model. Together they stand in for
// the Cray XK6 / InfiniBand hardware of the FlexIO paper: virtual time
// replaces wall-clock time, and shared resources (NIC injection bandwidth,
// bisection bandwidth, node memory bandwidth) replace the physical
// interconnect. All behaviour is deterministic for a given event sequence,
// which keeps the experiment harness reproducible.
package simnet

import (
	"container/heap"
	"fmt"
	"math"
)

// Engine is a discrete-event scheduler over virtual seconds. The zero
// value is not usable; call NewEngine.
type Engine struct {
	now   float64
	seq   int64
	queue eventQueue
}

type event struct {
	at  float64
	seq int64 // tie-break: FIFO among simultaneous events
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	e := &Engine{}
	heap.Init(&e.queue)
	return e
}

// Now reports the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay virtual seconds. Negative delays are
// clamped to zero (run at the current time, after already-queued events at
// this time). It returns a handle usable with Cancel.
func (e *Engine) Schedule(delay float64, fn func()) *Timer {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at (clamped to now).
func (e *Engine) ScheduleAt(at float64, fn func()) *Timer {
	if at < e.now {
		at = e.now
	}
	ev := &event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return &Timer{ev: ev}
}

// Timer is a handle to a scheduled event.
type Timer struct{ ev *event }

// Cancel prevents the event from firing. Safe to call after it fired.
func (t *Timer) Cancel() {
	if t != nil && t.ev != nil {
		t.ev.fn = nil
	}
}

// Step executes the next pending event and reports whether one existed.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.at > e.now {
			e.now = ev.at
		}
		if ev.fn != nil {
			fn := ev.fn
			ev.fn = nil
			fn()
			return true
		}
	}
	return false
}

// Run executes events until the queue drains. maxEvents guards against
// runaway simulations; it returns an error if exceeded.
func (e *Engine) Run(maxEvents int64) error {
	var n int64
	for e.Step() {
		n++
		if maxEvents > 0 && n > maxEvents {
			return fmt.Errorf("simnet: exceeded %d events at t=%gs", maxEvents, e.now)
		}
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (if it is ahead of the last event).
func (e *Engine) RunUntil(t float64) {
	for e.queue.Len() > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
