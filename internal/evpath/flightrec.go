package evpath

import (
	"fmt"

	"flexio/internal/flight"
	"flexio/internal/monitor"
	"flexio/internal/shm"
)

// Flight-recorder and gauge plumbing for the connection manager: the Net
// is where shm channel pairs are born (they are private to their conns),
// so attaching a journal or harvesting queue/pool gauges has to happen
// here.

// SetJournal attaches a flight recorder to the net's transports: the
// wire transport journals its frames, and every shm channel dialed from
// now on journals its queue crossings. A nil journal detaches future
// dials (already-dialed channels keep their recorder).
func (n *Net) SetJournal(j *flight.Journal) {
	n.mu.Lock()
	n.journal = j
	st := n.tcp
	n.mu.Unlock()
	if st != nil {
		st.journal.Store(j)
	}
}

// trackShmConn registers a freshly dialed shm pair for journaling and
// gauge harvesting.
func (n *Net) trackShmConn(c Conn) {
	sc, ok := c.(*shmConn)
	if !ok {
		return
	}
	n.mu.Lock()
	j := n.journal
	n.shmChans = append(n.shmChans, sc.tx, sc.rx)
	n.mu.Unlock()
	if j != nil {
		sc.tx.SetJournal(j)
		sc.rx.SetJournal(j)
	}
}

// ReportShm publishes every dialed shm channel's counters as monitor
// gauges, one prefix per channel ("<prefix>.ch<i>."): send-path mix,
// buffer-pool occupancy/high-water, and ring wait counts. Like the
// underlying gauges it is idempotent under re-publication.
func (n *Net) ReportShm(m *monitor.Monitor, prefix string) {
	if m == nil {
		return
	}
	n.mu.Lock()
	chans := append([]*shm.Channel(nil), n.shmChans...)
	n.mu.Unlock()
	for i, c := range chans {
		c.ReportTo(m, fmt.Sprintf("%s.ch%d.", prefix, i))
	}
}
