// Package core implements the FlexIO runtime — the paper's primary
// contribution (Section II). It couples an M-rank writer program
// (simulation) to an N-rank reader program (analytics) through named
// streams, translating high-level write/read calls into data movement
// over whichever transport the placement dictates:
//
//   - connection management through a directory server with per-side
//     coordinators (Section II.C.1),
//   - the four-step handshake protocol that exchanges array
//     distributions and computes the MxN re-distribution mapping
//     (Section II.C.2, Figure 3),
//   - handshake caching levels (NO_CACHING / CACHING_LOCAL /
//     CACHING_ALL), variable batching, and synchronous vs. asynchronous
//     writes — the paper's three protocol optimizations,
//   - per-rank performance monitoring hooks.
//
// Ranks are goroutines within one process or spread over processes;
// every byte still travels through evpath connections (shm on-node, tcp
// across nodes), so the full protocol machinery is exercised for real.
package core

import (
	"fmt"

	"flexio/internal/evpath"
	"flexio/internal/ndarray"
)

// CachingLevel controls how much of the handshake protocol is re-executed
// on each timestep (Section II.C.2).
type CachingLevel int

const (
	// NoCaching performs the full handshake for each variable at each
	// timestep.
	NoCaching CachingLevel = iota
	// CachingLocal reuses the local side's gathered distribution (skips
	// Step 1) but still exchanges distributions with the peer (Steps 2-4).
	CachingLocal
	// CachingAll reuses both sides' distribution data; handshaking is
	// completely avoided while distributions stay unchanged.
	CachingAll
)

func (c CachingLevel) String() string {
	switch c {
	case NoCaching:
		return "NO_CACHING"
	case CachingLocal:
		return "CACHING_LOCAL"
	case CachingAll:
		return "CACHING_ALL"
	}
	return fmt.Sprintf("CachingLevel(%d)", int(c))
}

// VarKind distinguishes the paper's two stream-mode I/O patterns plus
// scalars.
type VarKind int

const (
	// ScalarVar is a single value replicated to every reader.
	ScalarVar VarKind = iota
	// GlobalArrayVar is a multi-dimensional array distributed across
	// writer ranks and re-distributed to reader ranks (Figure 3).
	GlobalArrayVar
	// ProcessGroupVar is an opaque per-writer-rank block; readers select
	// the writer ranks whose groups they consume.
	ProcessGroupVar
)

func (k VarKind) String() string {
	switch k {
	case ScalarVar:
		return "scalar"
	case GlobalArrayVar:
		return "global-array"
	case ProcessGroupVar:
		return "process-group"
	}
	return fmt.Sprintf("VarKind(%d)", int(k))
}

// VarMeta describes one variable written in a timestep.
type VarMeta struct {
	Name        string
	Kind        VarKind
	ElemSize    int
	GlobalShape []int64     // GlobalArrayVar only
	Box         ndarray.Box // writer's local region (GlobalArrayVar only)
}

// Validate checks a variable description at write time.
func (m *VarMeta) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("core: variable needs a name")
	}
	if m.ElemSize <= 0 {
		return fmt.Errorf("core: variable %q: elem size %d", m.Name, m.ElemSize)
	}
	if m.Kind == GlobalArrayVar {
		if len(m.GlobalShape) == 0 {
			return fmt.Errorf("core: global array %q needs a shape", m.Name)
		}
		if m.Box.NDims() != len(m.GlobalShape) {
			return fmt.Errorf("core: global array %q: box rank %d != shape rank %d",
				m.Name, m.Box.NDims(), len(m.GlobalShape))
		}
		g := ndarray.BoxFromShape(m.GlobalShape)
		if !g.ContainsBox(m.Box) {
			return fmt.Errorf("core: global array %q: box %v outside global %v", m.Name, m.Box, g)
		}
	}
	return nil
}

// Options configures a stream endpoint. The zero value is usable:
// synchronous writes, no caching, no batching, chan transport everywhere.
type Options struct {
	// Tenant scopes the stream under a tenant namespace: every directory
	// key (coordinator contact, epoch-qualified data contacts) is
	// registered as "tenant/stream" (directory.Qualify), so many tenants
	// can run identically-named streams on one shared directory. Empty
	// means the legacy single-tenant namespace. Both endpoints of a
	// stream must agree on the tenant.
	Tenant string
	// Quota bounds this tenant group's footprint on the shared fabric
	// (see TenantQuota); the zero value is unlimited.
	Quota TenantQuota
	// Caching selects the handshake caching level.
	Caching CachingLevel
	// Batching packs all variables of a timestep into one framed transfer
	// per writer-reader pair instead of one per variable.
	Batching bool
	// Async makes EndStep return once the step is queued; a background
	// worker performs the actual movement (overlapping it with the
	// writer's compute, like the paper's asynchronous write API).
	Async bool
	// AsyncQueueDepth bounds queued steps in async mode (default 2,
	// matching a double-buffering discipline).
	AsyncQueueDepth int
	// Transport maps a (writerRank, readerRank) pair to the transport
	// kind — this is where placement decisions materialize. The two node
	// ids it also returns are unused. Nil means ChanTransport for all
	// pairs. A TCPTransport pair needs the Net to serve the wire (a
	// single process uses Net.ServeLoopback).
	Transport func(w, r int) (evpath.TransportKind, int, int)
	// WriterNode maps a writer rank to its node id. It is consulted when a
	// Reconfigure carries new reader node placements: pairs on the same
	// node get the shm transport, cross-node pairs get tcp
	// (evpath.TransportBetween). Nil keeps the chan transport for all
	// re-placed pairs.
	WriterNode func(w int) int
	// WrapConn, if set, wraps every data connection after dialing (used
	// for fault injection and instrumentation).
	WrapConn func(evpath.Conn) evpath.Conn
	// SendRetries bounds the timeout-and-retry policy for transient data
	// movement faults (Section II.H); default 3, 0 keeps the default,
	// negative disables retries.
	SendRetries int
	// PackWorkers bounds the worker pool that executes redistribution
	// plans (packing and sending) across writer ranks in parallel.
	// 0 means GOMAXPROCS; 1 forces sequential execution.
	PackWorkers int
	// PoolMaxBytes caps the bytes the payload buffer pool retains on its
	// free lists between steps (0 = unbounded). Excess buffers are
	// released to the garbage collector, mirroring the shared-memory
	// pool's configurable threshold.
	PoolMaxBytes int64
	// NoZeroCopy disables same-node handle passing: packed array payloads
	// are copied through the shm channel even when the transport could
	// hand the writer's pool buffer to the reader by reference. It also
	// forces the concatenating event encode on every transport: each data
	// message is built by copying header and payload into a fresh buffer
	// instead of framing the header in place in front of the pooled
	// payload. The zero value (zero-copy enabled) is the paper's XPMEM
	// mode; disabling it is for A/B measurement and diagnosis.
	NoZeroCopy bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.AsyncQueueDepth <= 0 {
		out.AsyncQueueDepth = 2
	}
	if out.Transport == nil {
		out.Transport = func(w, r int) (evpath.TransportKind, int, int) {
			return evpath.ChanTransport, 0, 0
		}
	}
	if out.SendRetries == 0 {
		out.SendRetries = 3
	}
	if out.SendRetries < 0 {
		out.SendRetries = 0
	}
	return out
}

// Wire message kinds used on coordinator and data connections.
const (
	msgWriterDist = "writer-dist" // coordinator: writer-side distribution for a step/var
	msgReaderDist = "reader-dist" // coordinator: reader-side selections
	msgData       = "data"        // data connection: one variable piece
	msgBatch      = "batch"       // data connection: batched variables
	msgStepDone   = "step-done"   // data connection: writer finished this step
)

// encodeBoxes flattens a box list for the codec: rank-major lo/hi pairs.
func encodeBoxes(boxes []ndarray.Box, nd int) []int64 {
	out := make([]int64, 0, len(boxes)*nd*2)
	for _, b := range boxes {
		for d := 0; d < nd; d++ {
			if b.NDims() == 0 {
				out = append(out, 0)
			} else {
				out = append(out, b.Lo[d])
			}
		}
		for d := 0; d < nd; d++ {
			if b.NDims() == 0 {
				out = append(out, 0)
			} else {
				out = append(out, b.Hi[d])
			}
		}
	}
	return out
}

// decodeBoxes reverses encodeBoxes.
func decodeBoxes(flat []int64, nd, count int) ([]ndarray.Box, error) {
	if nd <= 0 || len(flat) != count*nd*2 {
		return nil, fmt.Errorf("core: bad box encoding: %d values for %d boxes of rank %d", len(flat), count, nd)
	}
	out := make([]ndarray.Box, count)
	for i := 0; i < count; i++ {
		lo := make([]int64, nd)
		hi := make([]int64, nd)
		copy(lo, flat[i*nd*2:])
		copy(hi, flat[i*nd*2+nd:])
		out[i] = ndarray.Box{Lo: lo, Hi: hi}
	}
	return out, nil
}
