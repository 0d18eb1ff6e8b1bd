package simnet

import (
	"fmt"
	"math"
	"sort"

	"flexio/internal/flight"
)

// Resource is a shared capacity (bytes/second) that concurrent flows
// contend for: a NIC injection port, the machine bisection, or a node's
// memory system. Flows crossing a resource share it max-min fairly.
type Resource struct {
	Name     string
	Capacity float64 // bytes per second
	flows    map[int64]*Flow
}

// NewResource creates a resource with the given capacity in bytes/second.
func NewResource(name string, capacity float64) *Resource {
	return &Resource{Name: name, Capacity: capacity, flows: make(map[int64]*Flow)}
}

// Load reports the number of flows currently crossing the resource.
func (r *Resource) Load() int { return len(r.flows) }

// Flow is an in-flight bulk transfer across a set of resources.
type Flow struct {
	id        int64
	remaining float64 // bytes left
	rate      float64 // current bytes/sec (max-min share)
	limit     float64 // per-flow rate cap (e.g. point-to-point link bandwidth)
	res       []*Resource
	done      func(finish float64)
	lastT     float64
	timer     *Timer
	bytes     float64        // original size, for the journal
	startEv   flight.EventID // injection event, parent of the delivery
}

// FluidNet simulates bulk data movement as fluid flows with max-min fair
// bandwidth sharing. Every flow start or completion triggers a global rate
// recomputation; completions are scheduled on the event engine. This is
// the standard progressive-filling fluid model and captures the contention
// effects that drive FlexIO's placement trade-offs (staging traffic
// interfering with simulation MPI traffic, NIC injection limits, etc.).
type FluidNet struct {
	eng     *Engine
	nextID  int64
	active  map[int64]*Flow
	journal *flight.Journal
}

// NewFluidNet creates a fluid network bound to an engine.
func NewFluidNet(eng *Engine) *FluidNet {
	return &FluidNet{eng: eng, active: make(map[int64]*Flow)}
}

// StartFlow begins moving `bytes` across the given resources after a fixed
// `latency`. rateLimit caps the flow's own bandwidth (0 means unlimited —
// only resource shares apply). done is invoked at the virtual completion
// time. Zero-byte flows complete after latency alone.
func (n *FluidNet) StartFlow(bytes float64, latency float64, rateLimit float64, resources []*Resource, done func(finish float64)) {
	if bytes < 0 || math.IsNaN(bytes) {
		bytes = 0
	}
	n.eng.Schedule(latency, func() {
		if bytes == 0 {
			ev := n.recordFlowStart(0, resources)
			n.recordFlowEnd(ev, 0, resources)
			if done != nil {
				done(n.eng.Now())
			}
			return
		}
		f := &Flow{
			id:        n.nextID,
			remaining: bytes,
			limit:     rateLimit,
			res:       resources,
			done:      done,
			lastT:     n.eng.Now(),
			bytes:     bytes,
			startEv:   n.recordFlowStart(bytes, resources),
		}
		n.nextID++
		n.active[f.id] = f
		for _, r := range resources {
			r.flows[f.id] = f
		}
		n.rebalance()
	})
}

// settle advances each active flow's remaining bytes to the current time
// at its previously assigned rate.
func (n *FluidNet) settle() {
	now := n.eng.Now()
	for _, f := range n.active {
		dt := now - f.lastT
		if dt > 0 {
			f.remaining -= f.rate * dt
			if f.remaining < 1e-9 {
				f.remaining = 0
			}
		}
		f.lastT = now
	}
}

// rebalance recomputes max-min fair rates for all flows and reschedules
// the earliest completion.
func (n *FluidNet) rebalance() {
	n.settle()

	// Progressive filling: repeatedly find the bottleneck resource (the
	// one whose per-unfrozen-flow share is smallest), freeze its flows at
	// that share, and subtract their usage.
	type resState struct {
		r      *Resource
		remCap float64
		open   int
	}
	states := make(map[*Resource]*resState)
	unfrozen := make(map[int64]*Flow, len(n.active))
	for _, f := range n.active {
		f.rate = 0
		unfrozen[f.id] = f
		for _, r := range f.res {
			if _, ok := states[r]; !ok {
				states[r] = &resState{r: r, remCap: r.Capacity}
			}
		}
	}
	for _, st := range states {
		for _, f := range st.r.flows {
			if _, ok := unfrozen[f.id]; ok {
				st.open++
			}
		}
	}
	for len(unfrozen) > 0 {
		// Candidate share per resource; also honor per-flow caps by
		// treating a capped flow as its own bottleneck.
		bestShare := math.Inf(1)
		for _, st := range states {
			if st.open <= 0 {
				continue
			}
			share := st.remCap / float64(st.open)
			if share < bestShare {
				bestShare = share
			}
		}
		// Per-flow rate limits can be tighter than any resource share.
		minLimit := math.Inf(1)
		for _, f := range unfrozen {
			if f.limit > 0 && f.limit < minLimit {
				minLimit = f.limit
			}
		}
		if math.IsInf(bestShare, 1) && math.IsInf(minLimit, 1) {
			// Flows with no resources and no limit: infinite rate is
			// meaningless; finish them instantaneously.
			for id, f := range unfrozen {
				f.rate = math.Inf(1)
				delete(unfrozen, id)
			}
			break
		}
		if minLimit < bestShare {
			// Freeze all flows at the limit; they stop consuming share
			// growth beyond their cap.
			for id, f := range unfrozen {
				if f.limit > 0 && f.limit <= minLimit {
					f.rate = f.limit
					delete(unfrozen, id)
					for _, r := range f.res {
						st := states[r]
						st.remCap -= f.rate
						st.open--
					}
				}
			}
			continue
		}
		// Freeze flows on the bottleneck resource(s) at bestShare.
		frozeAny := false
		for _, st := range states {
			if st.open <= 0 {
				continue
			}
			share := st.remCap / float64(st.open)
			if share <= bestShare*(1+1e-12) {
				ids := make([]int64, 0, st.open)
				for id := range st.r.flows {
					if _, ok := unfrozen[id]; ok {
						ids = append(ids, id)
					}
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				for _, id := range ids {
					f := unfrozen[id]
					if f == nil {
						continue
					}
					rate := bestShare
					if f.limit > 0 && f.limit < rate {
						rate = f.limit
					}
					f.rate = rate
					delete(unfrozen, id)
					frozeAny = true
					for _, r := range f.res {
						s2 := states[r]
						s2.remCap -= rate
						s2.open--
					}
				}
			}
		}
		if !frozeAny {
			// Should not happen; guard against infinite loops.
			for id, f := range unfrozen {
				f.rate = bestShare
				delete(unfrozen, id)
			}
		}
	}

	// Schedule the earliest completion.
	n.scheduleNextCompletion()
}

func (n *FluidNet) scheduleNextCompletion() {
	// Cancel and reschedule a single completion timer per flow set: we
	// instead find the global earliest finisher.
	var next *Flow
	nextAt := math.Inf(1)
	ids := make([]int64, 0, len(n.active))
	for id := range n.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := n.active[id]
		if f.timer != nil {
			f.timer.Cancel()
			f.timer = nil
		}
		var at float64
		switch {
		case f.remaining <= 0:
			at = n.eng.Now()
		case math.IsInf(f.rate, 1):
			at = n.eng.Now()
		case f.rate <= 0:
			continue // starved; will be rescheduled on next rebalance
		default:
			at = n.eng.Now() + f.remaining/f.rate
		}
		if at < nextAt {
			nextAt = at
			next = f
		}
	}
	if next == nil {
		return
	}
	f := next
	f.timer = n.eng.ScheduleAt(nextAt, func() { n.finish(f) })
}

func (n *FluidNet) finish(f *Flow) {
	if _, ok := n.active[f.id]; !ok {
		return
	}
	n.settle()
	if f.remaining > 1e-6 {
		// Rates changed since this completion was scheduled; rebalance
		// will reschedule.
		n.rebalance()
		return
	}
	delete(n.active, f.id)
	for _, r := range f.res {
		delete(r.flows, f.id)
	}
	n.recordFlowEnd(f.startEv, f.bytes, f.res)
	done := f.done
	n.rebalance()
	if done != nil {
		done(n.eng.Now())
	}
}

// String summarizes the network state for debugging.
func (n *FluidNet) String() string {
	return fmt.Sprintf("fluidnet{t=%.6fs active=%d}", n.eng.Now(), len(n.active))
}
