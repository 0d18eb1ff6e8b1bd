package placement

import (
	"testing"

	"flexio/internal/evpath"
	"flexio/internal/graph"
	"flexio/internal/machine"
)

// gtsLikeSpec builds a GTS-style coupled instance: nSim sim processes
// with `threads` OpenMP threads each, one analytics process per sim
// process, heavy inter-program volume (110 MB) rank-to-rank, modest sim
// 2-D grid MPI, light analytics MPI.
func gtsLikeSpec(m *machine.Machine, nSim, threads int) *Spec {
	nAna := nSim
	g := graph.New(nSim + nAna)
	const interBytes = 110e6
	for i := 0; i < nSim; i++ {
		g.AddEdge(i, nSim+i, interBytes)
	}
	// Sim internal 2-D grid (ring simplification).
	for i := 0; i < nSim; i++ {
		g.AddEdge(i, (i+1)%nSim, 5e6)
	}
	// Analytics internal reduction (light).
	for i := 0; i < nAna-1; i++ {
		g.AddEdge(nSim+i, nSim+i+1, 0.5e6)
	}
	return &Spec{Machine: m, NSim: nSim, NAna: nAna, SimThreads: threads, Comm: g}
}

// s3dLikeSpec: tiny inter-program volume (1.7 MB per sim proc, fanned
// into nSim/128 analytics procs), dominant 3-D stencil MPI inside sim.
func s3dLikeSpec(m *machine.Machine, nSim, nAna int) *Spec {
	g := graph.New(nSim + nAna)
	for i := 0; i < nSim; i++ {
		g.AddEdge(i, nSim+i%nAna, 1.7e6)
	}
	for i := 0; i < nSim; i++ {
		g.AddEdge(i, (i+1)%nSim, 40e6) // heavy stencil exchange
		if i+4 < nSim {
			g.AddEdge(i, i+4, 40e6)
		}
	}
	for i := 0; i < nAna-1; i++ {
		g.AddEdge(nSim+i, nSim+i+1, 20e6) // viz compositing traffic
	}
	return &Spec{Machine: m, NSim: nSim, NAna: nAna, SimThreads: 1, Comm: g}
}

func TestSyncAllocation(t *testing.T) {
	anaTime := func(p int) float64 { return 8.0 / float64(p) } // perfect scaling
	if got := SyncAllocation(anaTime, 2.0, 64); got != 4 {
		t.Fatalf("SyncAllocation = %d, want 4", got)
	}
	// Cannot keep up: clamp to max.
	if got := SyncAllocation(anaTime, 0.01, 16); got != 16 {
		t.Fatalf("clamped allocation = %d, want 16", got)
	}
	if got := SyncAllocation(anaTime, 100, 0); got != 1 {
		t.Fatalf("maxP floor = %d, want 1", got)
	}
}

func TestAsyncAllocationAccountsForMovement(t *testing.T) {
	anaTime := func(p int) float64 { return 4.0 / float64(p) }
	// interval 2s, movement 1s -> budget 1s -> p = 4.
	if got := AsyncAllocation(1e9, 1e9, anaTime, 2.0, 64); got != 4 {
		t.Fatalf("AsyncAllocation = %d, want 4", got)
	}
	// Without movement cost the same interval needs only p = 2.
	if got := AsyncAllocation(0, 1e9, anaTime, 2.0, 64); got != 2 {
		t.Fatalf("AsyncAllocation(no move) = %d, want 2", got)
	}
}

func TestSpecValidate(t *testing.T) {
	m := machine.Smoky(2)
	if err := (&Spec{Machine: m, NSim: 0, Comm: graph.New(0)}).Validate(); err == nil {
		t.Error("zero sim procs must fail")
	}
	if err := (&Spec{Machine: m, NSim: 4, NAna: 0, Comm: graph.New(3)}).Validate(); err == nil {
		t.Error("wrong graph size must fail")
	}
	big := &Spec{Machine: m, NSim: 100, NAna: 0, SimThreads: 1, Comm: graph.New(100)}
	if err := big.Validate(); err == nil {
		t.Error("overcommitted machine must fail")
	}
}

func TestGTSPoliciesChooseHelperCore(t *testing.T) {
	// Smoky: 16 cores/node, GTS with 3 threads -> 4 procs + 4 helper
	// cores per node. All three algorithms should land analytics on the
	// same nodes as their partner sim processes (the paper's result).
	m := machine.Smoky(8)
	spec := gtsLikeSpec(m, 16, 3)

	inter := graph.New(spec.NSim + spec.NAna)
	for i := 0; i < spec.NSim; i++ {
		inter.AddEdge(i, spec.NSim+i, 110e6)
	}

	da, err := DataAware(spec, inter)
	if err != nil {
		t.Fatal(err)
	}
	ho, err := Holistic(spec)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := TopologyAware(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Placement{da, ho, ta} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Policy, err)
		}
		if k := p.Kind(); k != HelperCore {
			t.Errorf("%s: kind = %v, want helper-core", p.Policy, k)
		}
		// Every analytics process must share a node with its partner.
		for i := 0; i < spec.NSim; i++ {
			if !m.SameNode(p.SimCore[i], p.AnaCore[i]) {
				t.Errorf("%s: pair %d split across nodes", p.Policy, i)
			}
		}
	}
	if !ta.NUMAPinnedBuffers || ho.NUMAPinnedBuffers {
		t.Error("buffer pinning flags wrong")
	}
}

func TestTopoAwareBeatsHolisticOnNUMA(t *testing.T) {
	// Evaluated against the full topology tree, the NUMA-aware layout
	// must be at least as good as the linear holistic layout.
	m := machine.Smoky(8)
	spec := gtsLikeSpec(m, 16, 3)
	ho, err := Holistic(spec)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := TopologyAware(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ta.CommCost(true) > ho.CommCost(true)*1.0001 {
		t.Fatalf("topology-aware cost %g worse than holistic %g", ta.CommCost(true), ho.CommCost(true))
	}
}

func TestS3DHolisticPrefersStaging(t *testing.T) {
	// S3D: internal MPI dominates; clustering sim processes together and
	// analytics separately must beat the data-aware hybrid on comm cost.
	m := machine.Titan(10)
	spec := s3dLikeSpec(m, 128, 8)

	inter := graph.New(spec.NSim + spec.NAna)
	for i := 0; i < spec.NSim; i++ {
		inter.AddEdge(i, spec.NSim+i%spec.NAna, 1.7e6)
	}
	da, err := DataAware(spec, inter)
	if err != nil {
		t.Fatal(err)
	}
	ho, err := Holistic(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ho.CommCost(false) > da.CommCost(false)*1.0001 {
		t.Fatalf("holistic cost %g worse than data-aware %g on S3D shape",
			ho.CommCost(false), da.CommCost(false))
	}
}

func TestBaselines(t *testing.T) {
	m := machine.Smoky(8)
	spec := gtsLikeSpec(m, 16, 4) // 4 threads: sim fills whole nodes
	inl, err := InlinePlacement(spec)
	if err != nil {
		t.Fatal(err)
	}
	if inl.Kind() != Inline {
		t.Fatalf("inline kind = %v", inl.Kind())
	}
	// Inline: no inter-program inter-node traffic for paired ranks.
	spec2 := gtsLikeSpec(m, 16, 3)
	stg, err := StagingPlacement(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if err := stg.Validate(); err != nil {
		t.Fatal(err)
	}
	if stg.Kind() != Staging {
		t.Fatalf("staging kind = %v", stg.Kind())
	}
	// Staging moves all inter-program volume across the interconnect;
	// helper-core placements move ~none of it (the paper's ~90% data
	// movement reduction).
	ta, err := TopologyAware(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if ta.InterNodeVolume() > 0.2*stg.InterNodeVolume() {
		t.Fatalf("helper-core inter-node volume %g not <20%% of staging %g",
			ta.InterNodeVolume(), stg.InterNodeVolume())
	}
}

func TestStagingTooSmallMachine(t *testing.T) {
	m := machine.Smoky(1)
	spec := gtsLikeSpec(m, 4, 4)
	if _, err := StagingPlacement(spec); err == nil {
		t.Fatal("staging on a 1-node machine must fail")
	}
}

func TestTransportForMatchesPlacement(t *testing.T) {
	m := machine.Smoky(8)
	spec := gtsLikeSpec(m, 16, 3)
	ta, err := TopologyAware(spec)
	if err != nil {
		t.Fatal(err)
	}
	fn := ta.TransportFor()
	for w := 0; w < spec.NSim; w++ {
		for r := 0; r < spec.NAna; r++ {
			kind, nw, nr := fn(w, r)
			sameNode := m.SameNode(ta.SimCore[w], ta.AnaCore[r])
			if sameNode && kind != evpath.ShmTransport {
				t.Fatalf("pair (%d,%d) on-node but kind %v", w, r, kind)
			}
			if !sameNode && kind != evpath.TCPTransport {
				t.Fatalf("pair (%d,%d) cross-node but kind %v", w, r, kind)
			}
			if nw != m.NodeOfCore(ta.SimCore[w]) || nr != m.NodeOfCore(ta.AnaCore[r]) {
				t.Fatalf("pair (%d,%d): node ids %d/%d wrong", w, r, nw, nr)
			}
		}
	}
	// Out-of-range pairs degrade gracefully.
	if kind, _, _ := fn(-1, 0); kind != evpath.ChanTransport {
		t.Fatal("out-of-range pair should fall back to chan")
	}
}

func TestPlacementValidateCatchesOverlap(t *testing.T) {
	m := machine.Smoky(2)
	spec := gtsLikeSpec(m, 2, 2)
	p := &Placement{
		Spec:    spec,
		SimCore: []int{0, 1}, // overlap: sim0 occupies 0-1, sim1 starts at 1
		AnaCore: []int{4, 5},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("overlapping thread footprints must fail")
	}
	p2 := &Placement{
		Spec:    spec,
		SimCore: []int{14, 4}, // 14+2 threads -> cores 14,15 ok; but straddle? 14,15 same node ok
		AnaCore: []int{0, 1},
	}
	if err := p2.Validate(); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	p3 := &Placement{
		Spec:    spec,
		SimCore: []int{15, 4}, // 15,16 straddles node boundary
		AnaCore: []int{0, 1},
	}
	if err := p3.Validate(); err == nil {
		t.Fatal("node-straddling threads must fail")
	}
}

func TestNodesUsed(t *testing.T) {
	m := machine.Smoky(4)
	spec := gtsLikeSpec(m, 4, 3)
	ta, err := TopologyAware(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 4 procs x 3 threads + 4 ana = 16 cores = exactly 1 node.
	if got := ta.NodesUsed(); got != 1 {
		t.Fatalf("NodesUsed = %d, want 1", got)
	}
	stg, err := StagingPlacement(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := stg.NodesUsed(); got != 2 {
		t.Fatalf("staging NodesUsed = %d, want 2", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Inline: "inline", HelperCore: "helper-core", Staging: "staging",
		Hybrid: "hybrid", Offline: "offline",
	} {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", int(k), k.String(), want)
		}
	}
}
