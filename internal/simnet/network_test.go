package simnet

import (
	"math"
	"testing"

	"flexio/internal/machine"
)

func TestMachineNetIntraNodeNUMA(t *testing.T) {
	m := machine.Smoky(2)
	e := NewEngine()
	n := NewMachineNet(e, m)
	bytes := 10.0e6
	var same, cross float64
	n.TransferIntraNode(0, true, bytes, func(t float64) { same = t })
	e.Run(0)
	e2 := NewEngine()
	n2 := NewMachineNet(e2, m)
	n2.TransferIntraNode(0, false, bytes, func(t float64) { cross = t })
	e2.Run(0)
	if same >= cross {
		t.Fatalf("same-NUMA transfer (%g) must beat cross-NUMA (%g)", same, cross)
	}
}

func TestMachineNetFS(t *testing.T) {
	m := machine.Smoky(4)
	e := NewEngine()
	n := NewMachineNet(e, m)
	bytes := 30.0e6
	var f float64
	n.TransferToFS(0, bytes, func(t float64) { f = t })
	e.Run(0)
	want := m.Net.Latency + m.FS.OpenCost + bytes/m.FS.PerClientBandwidth
	if math.Abs(f-want)/want > 1e-6 {
		t.Fatalf("FS write = %g, want %g", f, want)
	}
}

func TestMachineNetFSAggregateCeiling(t *testing.T) {
	// Many concurrent writers saturate the FS aggregate bandwidth: total
	// time approaches totalBytes/aggBW even though each client could go
	// faster alone.
	m := machine.Smoky(80)
	e := NewEngine()
	n := NewMachineNet(e, m)
	writers := 64
	per := 2.0e9
	var last float64
	for w := 0; w < writers; w++ {
		n.TransferToFS(w%m.NumNodes, per, func(t float64) {
			if t > last {
				last = t
			}
		})
	}
	e.Run(0)
	ideal := per / m.FS.PerClientBandwidth // no contention
	agg := float64(writers) * per / m.FS.AggregateBandwidth
	if last < agg*0.9 {
		t.Fatalf("FS contention missing: last=%g, aggregate bound=%g", last, agg)
	}
	if last < ideal {
		t.Fatalf("contended time %g cannot beat solo time %g", last, ideal)
	}
}
