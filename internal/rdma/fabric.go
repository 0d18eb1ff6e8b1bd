// Package rdma models the NNTI layer of the paper's inter-node transport
// (Section II.E): memory Register/Unregister, receiver-directed RDMA Get,
// and the persistent buffer/registration cache FlexIO builds above it.
// It exists to reproduce Figure 4 (dynamic vs. static registration
// bandwidth); the live data plane crosses nodes over evpath's tcp
// transport and never uses it.
//
// There is no RDMA-capable NIC here, so the fabric is an in-process
// emulation: registered memory regions are real byte slices addressable by
// opaque handles, Get performs a real copy (so data integrity is
// testable), and every verb additionally reports a *modeled* cost in
// seconds derived from a machine.Interconnect — registration cost per
// page, one-way latency, and payload bandwidth.
package rdma

import (
	"errors"
	"fmt"
	"sync"

	"flexio/internal/machine"
)

// Common errors.
var (
	ErrBadHandle     = errors.New("rdma: stale or unknown memory handle")
	ErrOutOfBounds   = errors.New("rdma: access outside registered region")
	ErrNotRegistered = errors.New("rdma: memory not registered")
)

// Handle names a registered memory region fabric-wide; it is what control
// messages carry so a peer can Get from it.
type Handle uint64

// MemRegion is a registered memory region. Access through the fabric is
// only legal while registered.
type MemRegion struct {
	h      Handle
	buf    []byte
	owner  *Endpoint
	active bool
}

// Handle returns the fabric-wide handle for control messages.
func (r *MemRegion) Handle() Handle { return r.h }

// Bytes exposes the region's local storage (the owner's view).
func (r *MemRegion) Bytes() []byte { return r.buf }

// Len reports the region size in bytes.
func (r *MemRegion) Len() int { return len(r.buf) }

// Fabric is the in-process interconnect: the rendezvous point for
// endpoints and the owner of the handle table.
type Fabric struct {
	IC machine.Interconnect

	mu        sync.Mutex
	nextH     Handle
	regions   map[Handle]*MemRegion
	endpoints map[string]*Endpoint
}

// NewFabric creates a fabric with the given interconnect cost model.
func NewFabric(ic machine.Interconnect) *Fabric {
	return &Fabric{
		IC:        ic,
		nextH:     1,
		regions:   make(map[Handle]*MemRegion),
		endpoints: make(map[string]*Endpoint),
	}
}

// pages returns the page count for a buffer of n bytes.
func (f *Fabric) pages(n int) float64 {
	ps := f.IC.PageSize
	if ps <= 0 {
		ps = 4096
	}
	return float64((int64(n) + ps - 1) / ps)
}

// RegCost models the time to register n bytes with the NIC.
func (f *Fabric) RegCost(n int) float64 {
	return f.IC.RegBase + f.pages(n)*f.IC.RegPerPage
}

// AllocCost models the time to allocate n bytes of DMA-able memory.
func (f *Fabric) AllocCost(n int) float64 {
	return f.IC.AllocBase + f.pages(n)*f.IC.AllocPerPage
}

// XferCost models a point-to-point transfer of n payload bytes.
func (f *Fabric) XferCost(n int) float64 {
	return f.IC.Latency + float64(n)/f.IC.LinkBandwidth
}

// Endpoint is one process's attachment to the fabric (the NNTI transport
// handle). NodeID identifies the physical node for cost modelling.
type Endpoint struct {
	Name   string
	NodeID int

	fab *Fabric
}

// Attach creates an endpoint named name on the given node.
func (f *Fabric) Attach(name string, nodeID int) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.endpoints[name]; dup {
		return nil, fmt.Errorf("rdma: endpoint %q already attached", name)
	}
	ep := &Endpoint{Name: name, NodeID: nodeID, fab: f}
	f.endpoints[name] = ep
	return ep, nil
}

// Detach removes the endpoint and drops its registrations.
func (f *Fabric) Detach(ep *Endpoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for h, r := range f.regions {
		if r.owner == ep {
			r.active = false
			delete(f.regions, h)
		}
	}
	delete(f.endpoints, ep.Name)
}

// RegisterMemory registers buf for RDMA and returns the region plus the
// modeled registration cost in seconds.
func (ep *Endpoint) RegisterMemory(buf []byte) (*MemRegion, float64, error) {
	f := ep.fab
	f.mu.Lock()
	defer f.mu.Unlock()
	r := &MemRegion{h: f.nextH, buf: buf, owner: ep, active: true}
	f.nextH++
	f.regions[r.h] = r
	return r, f.RegCost(len(buf)), nil
}

// UnregisterMemory removes the registration. Further fabric access through
// the handle fails.
func (ep *Endpoint) UnregisterMemory(r *MemRegion) error {
	f := ep.fab
	f.mu.Lock()
	defer f.mu.Unlock()
	if r == nil || !r.active {
		return ErrNotRegistered
	}
	r.active = false
	delete(f.regions, r.h)
	return nil
}

// lookupRegion resolves a handle, enforcing registration.
func (f *Fabric) lookupRegion(h Handle) (*MemRegion, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.regions[h]
	if !ok || !r.active {
		return nil, ErrBadHandle
	}
	return r, nil
}

// Get performs a receiver-directed RDMA Get: it copies n bytes starting at
// remoteOff from the remote registered region into local[localOff:]. The
// local region must also be registered (NICs DMA only into registered
// memory). Returns the modeled transfer cost. This is the BTE RDMA path
// on Gemini.
func (ep *Endpoint) Get(remote Handle, remoteOff int, local *MemRegion, localOff, n int) (float64, error) {
	if local == nil || !local.active {
		return 0, ErrNotRegistered
	}
	src, err := ep.fab.lookupRegion(remote)
	if err != nil {
		return 0, err
	}
	if remoteOff < 0 || remoteOff+n > len(src.buf) {
		return 0, fmt.Errorf("%w: remote [%d,%d) of %d", ErrOutOfBounds, remoteOff, remoteOff+n, len(src.buf))
	}
	if localOff < 0 || localOff+n > len(local.buf) {
		return 0, fmt.Errorf("%w: local [%d,%d) of %d", ErrOutOfBounds, localOff, localOff+n, len(local.buf))
	}
	copy(local.buf[localOff:localOff+n], src.buf[remoteOff:remoteOff+n])
	return ep.fab.XferCost(n), nil
}
