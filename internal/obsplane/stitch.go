package obsplane

import (
	"sort"

	"flexio/internal/directory"
)

// StitchedStep is one timestep of one tenant-qualified stream,
// reassembled from journal events scraped across the fleet: the writer
// daemon's flush/pack/send events and the reader daemon's
// accept/assemble events of the same {scope, step} join into a single
// end-to-end latency envelope, with the contributing daemons attributed
// by the journal identity they were scraped from.
type StitchedStep struct {
	// Scope is the tenant-qualified stream key (directory.Qualify
	// grammar); Tenant and Stream are its split halves for rollups.
	Scope  string `json:"scope"`
	Tenant string `json:"tenant,omitempty"`
	Stream string `json:"stream"`
	Step   int64  `json:"step"`
	// Epoch is the highest session epoch seen among the step's events
	// (a step spanning a reconfiguration reports the post-switch epoch).
	Epoch uint64 `json:"epoch,omitempty"`
	// Start is the earliest event start, Finish the latest event end, and
	// Latency their difference — the cross-process step envelope.
	Start   float64 `json:"start"`
	Finish  float64 `json:"finish"`
	Latency float64 `json:"latency"`
	Events  int     `json:"events"`
	// Daemons lists the distinct daemons that contributed, sorted;
	// CrossProcess is len(Daemons) > 1.
	Daemons      []string `json:"daemons"`
	CrossProcess bool     `json:"cross_process"`
}

// stitchLocked joins the per-daemon windowed event stores into the
// stitched step table, grouped by {Scope, Step} and sorted by scope then
// step. Un-scoped events (node housekeeping, transport internals) belong
// to no stream and are left out. Caller holds c.mu.
func (c *Collector) stitchLocked() []StitchedStep {
	type key struct {
		scope string
		step  int64
	}
	acc := make(map[key]*StitchedStep)
	daemons := make(map[key]map[string]bool)
	for _, st := range c.daemons {
		origin := st.origin
		if origin == "" {
			origin = st.key
		}
		for i := range st.events {
			ev := &st.events[i]
			if ev.Scope == "" {
				continue
			}
			k := key{ev.Scope, ev.Step}
			s := acc[k]
			if s == nil {
				tenant, stream := directory.SplitTenant(ev.Scope)
				s = &StitchedStep{
					Scope: ev.Scope, Tenant: tenant, Stream: stream,
					Step: ev.Step, Start: ev.T, Finish: ev.T + ev.Dur,
				}
				acc[k] = s
				daemons[k] = make(map[string]bool)
			}
			if ev.T < s.Start {
				s.Start = ev.T
			}
			if end := ev.T + ev.Dur; end > s.Finish {
				s.Finish = end
			}
			if ev.Epoch > s.Epoch {
				s.Epoch = ev.Epoch
			}
			s.Events++
			daemons[k][origin] = true
		}
	}
	out := make([]StitchedStep, 0, len(acc))
	for k, s := range acc {
		for d := range daemons[k] {
			s.Daemons = append(s.Daemons, d)
		}
		sort.Strings(s.Daemons)
		s.CrossProcess = len(s.Daemons) > 1
		s.Latency = s.Finish - s.Start
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scope != out[j].Scope {
			return out[i].Scope < out[j].Scope
		}
		return out[i].Step < out[j].Step
	})
	return out
}
