// Package placement implements Section III of the FlexIO paper:
// exploiting location flexibility by deciding (1) how many resources to
// give analytics (resource allocation) and (2) which cores each
// simulation and analytics process runs on (resource binding). Three
// policies are provided, in increasing awareness:
//
//   - Data-aware mapping [51]: graph-partition the inter-program
//     communication matrix into one group per node.
//   - Holistic placement: adds resource allocation (rate matching for
//     synchronous movement, interval fitting for asynchronous) and binds
//     using both inter- AND intra-program communication, mapped onto a
//     two-level machine tree (node -> core).
//   - Node-topology-aware placement: the same mapping against the full
//     cache hierarchy tree (node -> NUMA -> core), additionally pinning
//     FlexIO's shared-memory buffers into the producer's NUMA domain.
//
// A Placement both *evaluates* (modeled communication cost) and
// *enforces* (it yields the transport-selection function the adios layer
// consumes), mirroring how FlexIO auto-configures transports from
// placement decisions.
package placement

import (
	"fmt"
	"sort"

	"flexio/internal/evpath"
	"flexio/internal/graph"
	"flexio/internal/machine"
)

// Kind classifies a placement along the paper's Figure 1 spectrum.
type Kind int

const (
	Inline     Kind = iota // analytics runs inside simulation processes
	HelperCore             // analytics on dedicated cores of the same nodes
	Staging                // analytics on separate nodes
	Hybrid                 // mixture of on-node and off-node analytics
	Offline                // analytics reads from the file system later
)

func (k Kind) String() string {
	switch k {
	case Inline:
		return "inline"
	case HelperCore:
		return "helper-core"
	case Staging:
		return "staging"
	case Hybrid:
		return "hybrid"
	case Offline:
		return "offline"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Spec is the placement problem instance. The communication graph has
// NSim + NAna vertices: 0..NSim-1 are simulation processes, NSim.. are
// analytics processes. Edge weights are bytes moved per I/O interval
// (both programs' internal MPI traffic and the inter-program stream).
type Spec struct {
	Machine    *machine.Machine
	NSim       int
	NAna       int
	SimThreads int // cores per simulation process (OpenMP threads); >= 1
	Comm       *graph.Graph
}

func (s *Spec) threads() int {
	if s.SimThreads < 1 {
		return 1
	}
	return s.SimThreads
}

// sizes returns per-vertex core footprints (sim processes occupy their
// thread count, analytics processes one core).
func (s *Spec) sizes() []int {
	sz := make([]int, s.NSim+s.NAna)
	for i := 0; i < s.NSim; i++ {
		sz[i] = s.threads()
	}
	for i := s.NSim; i < len(sz); i++ {
		sz[i] = 1
	}
	return sz
}

// Validate checks the instance is well-formed and fits the machine.
func (s *Spec) Validate() error {
	if s.Machine == nil {
		return fmt.Errorf("placement: nil machine")
	}
	if s.NSim <= 0 || s.NAna < 0 {
		return fmt.Errorf("placement: NSim=%d NAna=%d", s.NSim, s.NAna)
	}
	if s.Comm == nil || s.Comm.N != s.NSim+s.NAna {
		return fmt.Errorf("placement: comm graph must have %d vertices", s.NSim+s.NAna)
	}
	need := s.NSim*s.threads() + s.NAna
	if need > s.Machine.TotalCores() {
		return fmt.Errorf("placement: need %d cores, machine has %d", need, s.Machine.TotalCores())
	}
	return nil
}

// Placement is a concrete process-to-core binding.
type Placement struct {
	Spec    *Spec
	Policy  string
	SimCore []int // first core of each sim process (occupies SimThreads consecutive cores)
	AnaCore []int // core of each analytics process
	// NUMAPinnedBuffers reports whether FlexIO's shm queues/pools are
	// pinned to the producer's NUMA domain (topology-aware policy).
	NUMAPinnedBuffers bool
	// InlineAnalytics marks the baseline where analytics is a direct
	// function call inside simulation processes (no separate cores).
	InlineAnalytics bool
}

// Kind classifies the binding by where analytics cores landed relative to
// simulation nodes.
func (p *Placement) Kind() Kind {
	if p.InlineAnalytics {
		return Inline
	}
	if len(p.AnaCore) == 0 {
		return Offline
	}
	m := p.Spec.Machine
	simNodes := make(map[int]bool)
	for _, c := range p.SimCore {
		simNodes[m.NodeOfCore(c)] = true
	}
	on, off := 0, 0
	for _, c := range p.AnaCore {
		if simNodes[m.NodeOfCore(c)] {
			on++
		} else {
			off++
		}
	}
	switch {
	case off == 0:
		return HelperCore
	case on == 0:
		return Staging
	default:
		return Hybrid
	}
}

// NodesUsed reports the number of distinct nodes the placement touches —
// the basis of the CPU-hours cost metric.
func (p *Placement) NodesUsed() int {
	m := p.Spec.Machine
	nodes := make(map[int]bool)
	for i, c := range p.SimCore {
		_ = i
		for t := 0; t < p.Spec.threads(); t++ {
			nodes[m.NodeOfCore(c+t)] = true
		}
	}
	for _, c := range p.AnaCore {
		nodes[m.NodeOfCore(c)] = true
	}
	return len(nodes)
}

// coreOf returns the core hosting a communication-graph vertex.
func (p *Placement) coreOf(v int) int {
	if v < p.Spec.NSim {
		return p.SimCore[v]
	}
	return p.AnaCore[v-p.Spec.NSim]
}

// CommCost evaluates the binding: sum over all edges of weight times the
// architecture-tree distance between the endpoints' cores. topoAware
// selects the evaluation tree depth (the objective each policy optimizes).
func (p *Placement) CommCost(topoAware bool) float64 {
	tree := p.Spec.Machine.Tree(topoAware)
	var cost float64
	n := p.Spec.NSim + p.Spec.NAna
	for u := 0; u < n; u++ {
		cu := p.coreOf(u)
		for _, v := range p.Spec.Comm.Neighbors(u) {
			if v <= u {
				continue
			}
			cost += p.Spec.Comm.Weight(u, v) * tree.LeafDistance(cu, p.coreOf(v))
		}
	}
	return cost
}

// InterNodeVolume reports the bytes per interval crossing node
// boundaries — the paper's Data Movement Volume metric for the
// interconnect.
func (p *Placement) InterNodeVolume() float64 {
	m := p.Spec.Machine
	var vol float64
	n := p.Spec.NSim + p.Spec.NAna
	for u := 0; u < n; u++ {
		cu := p.coreOf(u)
		for _, v := range p.Spec.Comm.Neighbors(u) {
			if v <= u {
				continue
			}
			if !m.SameNode(cu, p.coreOf(v)) {
				vol += p.Spec.Comm.Weight(u, v)
			}
		}
	}
	return vol
}

// TransportFor yields the adios/core transport-selection function that
// enforces this placement by evpath.TransportBetween: shared memory
// on-node, tcp across nodes — "intra- vs inter-node transports are
// automatically configured according to the placements".
func (p *Placement) TransportFor() func(w, r int) (evpath.TransportKind, int, int) {
	m := p.Spec.Machine
	return func(w, r int) (evpath.TransportKind, int, int) {
		if w < 0 || w >= len(p.SimCore) || r < 0 || r >= len(p.AnaCore) {
			return evpath.ChanTransport, 0, 0
		}
		wn := m.NodeOfCore(p.SimCore[w])
		rn := m.NodeOfCore(p.AnaCore[r])
		return evpath.TransportBetween(wn, rn), wn, rn
	}
}

// Validate checks that the binding is feasible: cores in range, no two
// processes sharing a core (accounting for sim thread footprints).
func (p *Placement) Validate() error {
	m := p.Spec.Machine
	used := make(map[int]string)
	claim := func(core int, who string) error {
		if core < 0 || core >= m.TotalCores() {
			return fmt.Errorf("placement: %s on core %d outside machine", who, core)
		}
		if prev, taken := used[core]; taken {
			return fmt.Errorf("placement: core %d claimed by both %s and %s", core, prev, who)
		}
		used[core] = who
		return nil
	}
	for i, c := range p.SimCore {
		for t := 0; t < p.Spec.threads(); t++ {
			if err := claim(c+t, fmt.Sprintf("sim%d", i)); err != nil {
				return err
			}
		}
		// A sim process's threads must not straddle nodes.
		if m.NodeOfCore(c) != m.NodeOfCore(c+p.Spec.threads()-1) {
			return fmt.Errorf("placement: sim%d threads straddle nodes", i)
		}
	}
	for i, c := range p.AnaCore {
		if err := claim(c, fmt.Sprintf("ana%d", i)); err != nil {
			return err
		}
	}
	return nil
}

// layoutGroup places the vertices assigned to one node onto its cores:
// sim processes first (so their threads stay contiguous), then analytics.
// If topoAware, vertices are sub-partitioned across NUMA domains first so
// that heavy communicators share a domain and no sim process straddles a
// NUMA boundary gratuitously.
func layoutGroup(spec *Spec, verts []int, node int, topoAware bool, simCore, anaCore []int) error {
	m := spec.Machine
	base := node * m.Node.Cores
	if !topoAware {
		// Linear layout within the node (what plain holistic placement
		// does; the paper notes this can split OpenMP thread groups
		// across NUMA boundaries, costing up to 7% on Smoky).
		next := base
		for _, v := range orderSimFirst(spec, verts) {
			if v < spec.NSim {
				simCore[v] = next
				next += spec.threads()
			} else {
				anaCore[v-spec.NSim] = next
				next++
			}
		}
		if next > base+m.Node.Cores {
			return fmt.Errorf("placement: node %d over capacity", node)
		}
		return nil
	}
	// Topology-aware: partition the node's vertices across NUMA domains
	// by communication affinity, respecting per-domain core capacity and
	// keeping each sim process inside one domain.
	nd := m.Node.NUMADomains
	caps := make([]int, nd)
	for i := range caps {
		caps[i] = m.Node.CoresPerNUMA
	}
	sizes := make([]int, len(verts))
	allSizes := spec.sizes()
	for i, v := range verts {
		sizes[i] = allSizes[v]
	}
	part, err := graph.PartitionWeighted(spec.Comm, verts, sizes, caps)
	if err != nil {
		return fmt.Errorf("placement: node %d NUMA split: %w", node, err)
	}
	nextIn := make([]int, nd)
	for d := range nextIn {
		nextIn[d] = base + d*m.Node.CoresPerNUMA
	}
	for _, i := range orderIdxSimFirst(spec, verts) {
		v := verts[i]
		d := part[i]
		if v < spec.NSim {
			simCore[v] = nextIn[d]
			nextIn[d] += spec.threads()
		} else {
			anaCore[v-spec.NSim] = nextIn[d]
			nextIn[d]++
		}
		if nextIn[d] > base+(d+1)*m.Node.CoresPerNUMA {
			return fmt.Errorf("placement: node %d NUMA %d over capacity", node, d)
		}
	}
	return nil
}

// orderSimFirst returns verts with sim processes (multi-core footprints)
// first, preserving relative order — first-fit-decreasing layout.
func orderSimFirst(spec *Spec, verts []int) []int {
	out := make([]int, 0, len(verts))
	for _, v := range verts {
		if v < spec.NSim {
			out = append(out, v)
		}
	}
	for _, v := range verts {
		if v >= spec.NSim {
			out = append(out, v)
		}
	}
	return out
}

func orderIdxSimFirst(spec *Spec, verts []int) []int {
	idx := make([]int, len(verts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa := verts[idx[a]] < spec.NSim
		sb := verts[idx[b]] < spec.NSim
		return sa && !sb
	})
	return idx
}
