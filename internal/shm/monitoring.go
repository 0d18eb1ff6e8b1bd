package shm

import (
	"flexio/internal/flight"
	"flexio/internal/monitor"
)

// SetJournal attaches a flight recorder to the channel: every successful
// send is journaled as an enqueue event ("shm.send.inline" / ".pooled" /
// ".handle") and every delivery as a dequeue ("shm.recv",
// or "shm.recv.handle" for by-reference deliveries), stamped on
// the journal's clock. These are transport-level events (Step -1): they
// feed trace export and queue-behaviour inspection, while step
// attribution happens at the core layer. A nil journal detaches.
func (c *Channel) SetJournal(j *flight.Journal) {
	c.journal.Store(j)
}

// recordQueueEvent journals one queue crossing; a nop when detached.
func (c *Channel) recordQueueEvent(kind flight.Kind, point string, n int) {
	j := c.journal.Load()
	if j == nil {
		return
	}
	j.Record(flight.Event{
		Kind: kind, Point: point, Channel: "shm",
		T: j.Now(), Step: -1, Bytes: int64(n),
	})
}

// ReportTo publishes the channel's cumulative counters into a monitor as
// gauges under the given prefix (e.g. "shm.ch0."): message/byte totals
// per send path, the buffer pool's occupancy, free bytes and high-water
// mark, and how often either side of the control ring had to wait
// (producer found it full / consumer found it empty — the backpressure
// signals that motivate placement moves). Gauges merge with
// max-semantics across reports, so republishing a growing counter is
// idempotent — call it from a metrics poll loop as often as needed.
func (c *Channel) ReportTo(m *monitor.Monitor, prefix string) {
	if m == nil {
		return
	}
	st := c.Stats()
	m.Set(prefix+"msgs", st.MessagesSent)
	m.Set(prefix+"bytes", st.BytesSent)
	m.Set(prefix+"inline", st.InlineSends)
	m.Set(prefix+"pooled", st.PooledSends)
	m.Set(prefix+"handle", st.HandleSends)
	m.Set(prefix+"copied_bytes", st.CopiedBytes)

	ps := c.pool.Stats()
	m.Set(prefix+"pool.inuse", ps.BytesInUse)
	m.Set(prefix+"pool.free", ps.BytesFree)
	m.Set(prefix+"pool.highwater", ps.HighWater)
	m.Set(prefix+"pool.reclaims", ps.Reclaims)

	enq, deq := c.q.WaitCounts()
	m.Set(prefix+"q.enq_waits", enq)
	m.Set(prefix+"q.deq_waits", deq)
	m.Set(prefix+"q.cap", int64(c.q.Capacity()))
}
