package simnet

import (
	"fmt"

	"flexio/internal/machine"
)

// MachineNet wires a FluidNet to a machine model: one injection (TX) and
// one ejection (RX) resource per node NIC, one global bisection resource,
// and one memory-system resource per node for intra-node (shared-memory
// transport) movement. It is the virtual hardware that FlexIO's RDMA and
// shm transports "run" on.
type MachineNet struct {
	Eng   *Engine
	Fluid *FluidNet
	M     *machine.Machine

	TX        []*Resource
	RX        []*Resource
	Bisection *Resource
	Mem       []*Resource
	FS        *Resource // parallel file system aggregate bandwidth
}

// NewMachineNet builds the resource graph for a machine.
func NewMachineNet(eng *Engine, m *machine.Machine) *MachineNet {
	n := &MachineNet{
		Eng:       eng,
		Fluid:     NewFluidNet(eng),
		M:         m,
		TX:        make([]*Resource, m.NumNodes),
		RX:        make([]*Resource, m.NumNodes),
		Mem:       make([]*Resource, m.NumNodes),
		Bisection: NewResource("bisection", m.Net.BisectionBandwidth),
		FS:        NewResource("pfs", m.FS.AggregateBandwidth),
	}
	for i := 0; i < m.NumNodes; i++ {
		n.TX[i] = NewResource(fmt.Sprintf("tx%d", i), m.Net.InjectionBandwidth)
		n.RX[i] = NewResource(fmt.Sprintf("rx%d", i), m.Net.InjectionBandwidth)
		// Node memory system: each NUMA domain contributes its local
		// copy bandwidth to the aggregate; per-flow caps then distinguish
		// NUMA-local from NUMA-remote streams.
		n.Mem[i] = NewResource(fmt.Sprintf("mem%d", i),
			m.Node.IntraNUMABandwidth*float64(m.Node.NUMADomains))
	}
	return n
}

// TransferIntraNode moves bytes inside a node through the memory system.
// sameNUMA selects the intra- vs. inter-NUMA bandwidth cap and latency,
// reflecting the paper's NUMA-aware buffer placement concerns.
func (n *MachineNet) TransferIntraNode(node int, sameNUMA bool, bytes float64, done func(t float64)) {
	bw := n.M.Node.InterNUMABandwidth
	lat := n.M.Node.InterNUMALatency
	if sameNUMA {
		bw = n.M.Node.IntraNUMABandwidth
		lat = n.M.Node.IntraNUMALatency
	}
	n.Fluid.StartFlow(bytes, lat, bw, []*Resource{n.Mem[node]}, done)
}

// TransferToFS writes bytes from a node to the parallel file system,
// contending on the node NIC, the bisection, the FS aggregate bandwidth,
// and the per-client ceiling.
func (n *MachineNet) TransferToFS(srcNode int, bytes float64, done func(t float64)) {
	res := []*Resource{n.TX[srcNode], n.Bisection, n.FS}
	n.Fluid.StartFlow(bytes, n.M.Net.Latency+n.M.FS.OpenCost, n.M.FS.PerClientBandwidth, res, done)
}
