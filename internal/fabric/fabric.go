// Package fabric is the multi-tenant admission and placement service:
// the layer that turns FlexIO's per-run placement flexibility into a
// shared facility. Many tenants' coupled analytics pipelines are
// bin-packed onto one machine pool using internal/placement bindings and
// internal/graph communication costs; admissions beyond a tenant's quota
// are rejected, admissions beyond the pool's capacity are rejected or
// queued, and mid-run Resize calls close the elasticity loop by emitting
// the placement.Delta a core.ReaderGroup.Reconfigure consumes.
//
// The invariant the fabric maintains is single ownership: every core of
// the pool is held by at most one tenant at any instant, across
// concurrent Admit/Resize/Release from all tenants.
package fabric

import (
	"errors"
	"fmt"
	"sync"

	"flexio/internal/directory"
	"flexio/internal/graph"
	"flexio/internal/machine"
	"flexio/internal/placement"
)

// Admission errors. ErrOverQuota is a policy rejection (waiting cannot
// help — the request itself exceeds the tenant's budget); ErrPoolFull is
// a capacity condition (a Block=true request waits it out instead).
var (
	ErrOverQuota = errors.New("fabric: tenant quota exceeded")
	ErrPoolFull  = errors.New("fabric: shared pool exhausted")
	ErrClosed    = errors.New("fabric: closed")
)

// Quota bounds one tenant's share of the pool. Zero fields are
// unlimited.
type Quota struct {
	// MaxCores caps the tenant's total held cores (sim threads +
	// analytics) across all of its grants.
	MaxCores int
	// MaxAna caps the tenant's total analytics ranks across grants —
	// the knob admission shares with core.TenantQuota.MaxRanks.
	MaxAna int
}

// Request asks the fabric to place one coupled pipeline.
type Request struct {
	Tenant     string
	NSim       int
	NAna       int
	SimThreads int // cores per sim process; <= 0 means 1
	// Comm optionally carries the pipeline's communication graph
	// (NSim+NAna vertices, placement.Spec layout). Nil builds a uniform
	// writer-to-reader graph.
	Comm *graph.Graph
	// Block queues the request behind ErrPoolFull until capacity frees
	// (Release/shrinking Resize) instead of failing. Quota rejections are
	// never queued.
	Block bool
}

func (r *Request) threads() int {
	if r.SimThreads < 1 {
		return 1
	}
	return r.SimThreads
}

func (r *Request) cores() int { return r.NSim*r.threads() + r.NAna }

// Grant is one admitted pipeline's standing allocation. The embedded
// Placement carries the core binding and yields the transport function /
// node ids the session layer consumes.
type Grant struct {
	Tenant    string
	Placement *placement.Placement

	f   *Fabric
	req Request
}

// NAna reports the grant's current analytics rank count (changes with
// Resize).
func (g *Grant) NAna() int { return len(g.Placement.AnaCore) }

// Fabric is the shared-pool admission service.
type Fabric struct {
	mu     sync.Mutex
	cond   *sync.Cond
	pool   *machine.Machine
	owner  []string // per-core owning tenant; "" = free
	quotas map[string]Quota
	grants []*Grant // standing allocations, for per-tenant accounting
	closed bool
}

// New creates a fabric over the machine pool.
func New(pool *machine.Machine) *Fabric {
	f := &Fabric{
		pool:   pool,
		owner:  make([]string, pool.TotalCores()),
		quotas: make(map[string]Quota),
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// SetQuota installs (or replaces) a tenant's quota. It applies to future
// admissions and resizes; standing grants are not revoked.
func (f *Fabric) SetQuota(tenant string, q Quota) {
	f.mu.Lock()
	f.quotas[tenant] = q
	f.mu.Unlock()
}

// FreeCores reports currently unowned cores.
func (f *Fabric) FreeCores() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.freeLocked()
}

// UsedCores reports the cores a tenant currently holds.
func (f *Fabric) UsedCores(tenant string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.usedLocked(tenant)
}

func (f *Fabric) freeLocked() int {
	n := 0
	for _, o := range f.owner {
		if o == "" {
			n++
		}
	}
	return n
}

func (f *Fabric) usedLocked(tenant string) int {
	n := 0
	for _, o := range f.owner {
		if o == tenant {
			n++
		}
	}
	return n
}

// checkQuotaLocked rejects an allocation that would push a tenant past
// its quota: addCores more owned cores, addAna more analytics ranks on
// top of heldAna standing ones. Caller holds f.mu.
func (f *Fabric) checkQuotaLocked(tenant string, addCores, addAna, heldAna int) error {
	q := f.quotas[tenant]
	if q.MaxCores > 0 && f.usedLocked(tenant)+addCores > q.MaxCores {
		return fmt.Errorf("%w: tenant %q would hold %d cores over MaxCores %d",
			ErrOverQuota, tenant, f.usedLocked(tenant)+addCores, q.MaxCores)
	}
	if q.MaxAna > 0 && heldAna+addAna > q.MaxAna {
		return fmt.Errorf("%w: tenant %q would run %d analytics ranks over MaxAna %d",
			ErrOverQuota, tenant, heldAna+addAna, q.MaxAna)
	}
	return nil
}

// Close fails all queued admissions.
func (f *Fabric) Close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Admit places one pipeline on the pool. Sim processes are packed
// first-fit onto whole runs of free cores; analytics ranks prefer free
// helper cores on the nodes hosting this pipeline's sim processes
// (minimizing modeled communication cost) and spill onto staging nodes
// otherwise. Over-quota requests fail with ErrOverQuota; over-capacity
// requests fail with ErrPoolFull or, with Block, wait for capacity.
func (f *Fabric) Admit(req Request) (*Grant, error) {
	if err := directory.ValidateTenant(req.Tenant); err != nil {
		return nil, err
	}
	if req.NSim <= 0 || req.NAna < 0 {
		return nil, fmt.Errorf("fabric: NSim=%d NAna=%d", req.NSim, req.NAna)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil, ErrClosed
		}
		if err := f.checkQuotaLocked(req.Tenant, req.cores(), req.NAna, f.heldAnaLocked(req.Tenant)); err != nil {
			return nil, err
		}
		p, err := f.placeLocked(&req)
		if err == nil {
			f.claimLocked(req.Tenant, p)
			g := &Grant{Tenant: req.Tenant, Placement: p, f: f, req: req}
			f.grants = append(f.grants, g)
			return g, nil
		}
		if !errors.Is(err, ErrPoolFull) || !req.Block {
			return nil, err
		}
		f.cond.Wait()
	}
}

func (f *Fabric) heldAnaLocked(tenant string) int {
	n := 0
	for _, g := range f.grants {
		if g.Tenant == tenant {
			n += len(g.Placement.AnaCore)
		}
	}
	return n
}

// placeLocked computes a binding over the free cores without mutating
// the owner map. Caller holds f.mu.
func (f *Fabric) placeLocked(req *Request) (*placement.Placement, error) {
	threads := req.threads()
	simCore := make([]int, 0, req.NSim)
	taken := make(map[int]bool)
	free := func(c int) bool { return f.owner[c] == "" && !taken[c] }

	// Sim processes: first-fit runs of `threads` consecutive free cores
	// that do not straddle nodes.
	perNode := f.pool.Node.Cores
	for s := 0; s < req.NSim; s++ {
		found := -1
		for c := 0; c+threads <= len(f.owner); c++ {
			if c/perNode != (c+threads-1)/perNode {
				continue
			}
			ok := true
			for t := 0; t < threads; t++ {
				if !free(c + t) {
					ok = false
					break
				}
			}
			if ok {
				found = c
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("%w: no room for sim process %d (%d threads)", ErrPoolFull, s, threads)
		}
		for t := 0; t < threads; t++ {
			taken[found+t] = true
		}
		simCore = append(simCore, found)
	}

	// Analytics: helper-core preference — a free core on the node of the
	// sim process this rank predominantly talks to (rank r ~ sim r mod
	// NSim under the uniform graph), else any free core.
	simNodes := make([]int, len(simCore))
	for i, c := range simCore {
		simNodes[i] = f.pool.NodeOfCore(c)
	}
	anaCore := make([]int, 0, req.NAna)
	pickOnNode := func(node int) int {
		for c := node * perNode; c < (node+1)*perNode && c < len(f.owner); c++ {
			if free(c) {
				return c
			}
		}
		return -1
	}
	for r := 0; r < req.NAna; r++ {
		c := pickOnNode(simNodes[r%len(simNodes)])
		if c < 0 {
			for cc := 0; cc < len(f.owner); cc++ {
				if free(cc) {
					c = cc
					break
				}
			}
		}
		if c < 0 {
			return nil, fmt.Errorf("%w: no room for analytics rank %d", ErrPoolFull, r)
		}
		taken[c] = true
		anaCore = append(anaCore, c)
	}

	spec := &placement.Spec{
		Machine:    f.pool,
		NSim:       req.NSim,
		NAna:       req.NAna,
		SimThreads: threads,
		Comm:       req.Comm,
	}
	if spec.Comm == nil || spec.Comm.N != req.NSim+req.NAna {
		spec.Comm = uniformComm(req.NSim, req.NAna)
	}
	p := &placement.Placement{Spec: spec, Policy: "fabric", SimCore: simCore, AnaCore: anaCore}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: computed invalid placement: %w", err)
	}
	return p, nil
}

// claimLocked marks a placement's cores as owned. Caller holds f.mu.
func (f *Fabric) claimLocked(tenant string, p *placement.Placement) {
	threads := p.Spec.SimThreads
	if threads < 1 {
		threads = 1
	}
	for _, c := range p.SimCore {
		for t := 0; t < threads; t++ {
			f.owner[c+t] = tenant
		}
	}
	for _, c := range p.AnaCore {
		f.owner[c] = tenant
	}
}

// releaseCoresLocked frees a set of single cores. Caller holds f.mu.
func (f *Fabric) releaseCoresLocked(cores []int) {
	for _, c := range cores {
		f.owner[c] = ""
	}
}

// Release returns a grant's cores to the pool and wakes queued
// admissions. Idempotent.
func (f *Fabric) Release(g *Grant) {
	if g == nil || g.f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, og := range f.grants {
		if og == g {
			f.grants = append(f.grants[:i], f.grants[i+1:]...)
			threads := g.Placement.Spec.SimThreads
			if threads < 1 {
				threads = 1
			}
			for _, c := range g.Placement.SimCore {
				for t := 0; t < threads; t++ {
					f.owner[c+t] = ""
				}
			}
			f.releaseCoresLocked(g.Placement.AnaCore)
			f.cond.Broadcast()
			return
		}
	}
}

// Resize grows or shrinks a grant's analytics side to newNAna ranks,
// returning the placement.Delta that tells the session layer what to
// reconfigure (Delta.AnaNodes is exactly core.ReconfigSpec.Nodes). The
// simulation binding never moves. Growth allocates helper-preferred
// cores like Admit and can fail with ErrOverQuota or ErrPoolFull (never
// queued — the elasticity loop retries on the next signal); shrinking
// frees the highest ranks' cores and wakes queued admissions. The owner
// map is updated atomically under the fabric lock, so concurrent Resize
// calls from different tenants compose without double-allocating a core.
func (f *Fabric) Resize(g *Grant, newNAna int) (*placement.Delta, error) {
	if g == nil || g.f != f {
		return nil, fmt.Errorf("fabric: foreign grant")
	}
	if newNAna <= 0 {
		return nil, fmt.Errorf("fabric: resize to %d analytics ranks", newNAna)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	oldP := g.Placement
	oldN := len(oldP.AnaCore)
	if newNAna == oldN {
		return placement.Replace(oldP, oldP)
	}

	anaCore := make([]int, 0, newNAna)
	anaCore = append(anaCore, oldP.AnaCore...)
	if newNAna > oldN {
		add := newNAna - oldN
		if err := f.checkQuotaLocked(g.Tenant, add, add, f.heldAnaLocked(g.Tenant)); err != nil {
			return nil, err
		}
		perNode := f.pool.Node.Cores
		simNodes := make([]int, len(oldP.SimCore))
		for i, c := range oldP.SimCore {
			simNodes[i] = f.pool.NodeOfCore(c)
		}
		for r := oldN; r < newNAna; r++ {
			c := -1
			node := simNodes[r%len(simNodes)]
			for cc := node * perNode; cc < (node+1)*perNode && cc < len(f.owner); cc++ {
				if f.owner[cc] == "" {
					c = cc
					break
				}
			}
			if c < 0 {
				for cc := 0; cc < len(f.owner); cc++ {
					if f.owner[cc] == "" {
						c = cc
						break
					}
				}
			}
			if c < 0 {
				return nil, fmt.Errorf("%w: no room to grow tenant %q to %d analytics ranks", ErrPoolFull, g.Tenant, newNAna)
			}
			f.owner[c] = g.Tenant
			anaCore = append(anaCore, c)
		}
	} else {
		f.releaseCoresLocked(anaCore[newNAna:])
		anaCore = anaCore[:newNAna]
		f.cond.Broadcast()
	}

	spec := &placement.Spec{
		Machine:    f.pool,
		NSim:       oldP.Spec.NSim,
		NAna:       newNAna,
		SimThreads: oldP.Spec.SimThreads,
		Comm:       uniformComm(oldP.Spec.NSim, newNAna),
	}
	newP := &placement.Placement{Spec: spec, Policy: "fabric", SimCore: oldP.SimCore, AnaCore: anaCore}
	delta, err := placement.Replace(oldP, newP)
	if err != nil {
		// Roll the owner map back; the grant is unchanged.
		if newNAna > oldN {
			f.releaseCoresLocked(anaCore[oldN:])
		} else {
			for _, c := range oldP.AnaCore[newNAna:] {
				f.owner[c] = g.Tenant
			}
		}
		return nil, err
	}
	g.Placement = newP
	return delta, nil
}

// uniformComm builds the default communication graph: every writer
// talks to every reader with unit weight (the all-to-all worst case the
// redistribution mapping starts from).
func uniformComm(nSim, nAna int) *graph.Graph {
	gr := graph.New(nSim + nAna)
	for w := 0; w < nSim; w++ {
		for r := 0; r < nAna; r++ {
			gr.AddEdge(w, nSim+r, 1)
		}
	}
	return gr
}
