// Package directory implements FlexIO's external directory server
// (Section II.C.1): before any data movement, the simulation's elected
// coordinator registers a stream name with its contact information, and
// the analytics' coordinator looks the name up to bootstrap the
// connection. The directory participates only in discovery — never in the
// data path.
//
// Names live in a tenant/stream namespace (see Qualify): a multi-tenant
// fabric scopes every stream, contact, and lease under the owning
// tenant's id, so two tenants may both run a stream called "gts" without
// colliding. The in-process implementation is lock-striped across
// shards keyed by that namespace, so directory traffic from thousands of
// concurrent sessions does not serialize on one mutex.
//
// Two implementations are provided: Mem, an in-process directory used when
// simulation and analytics share a process (the common case in this
// reproduction), and a TCP Server/Client pair with a line-oriented
// protocol, so the cmd/dirserver binary can serve real multi-process
// deployments.
package directory

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// Common errors.
var (
	ErrNotFound = errors.New("directory: stream not found")
	// ErrDuplicate is retained for callers that still test for it.
	//
	// Deprecated: Register performs atomic contact replacement and no
	// longer returns this error; a re-registration (e.g. a session
	// reconfiguring its contact after a placement switch) simply wins.
	ErrDuplicate = errors.New("directory: stream already registered")
	ErrTimeout   = errors.New("directory: lookup timed out")
	ErrClosed    = errors.New("directory: closed")
)

// Leaser is the optional lease extension of a Directory: a registration
// carries a time-to-live and vanishes unless its owner heartbeats a
// renewal — how the directory sheds contacts of crashed processes
// without ever being on the data path. Mem and Client implement it.
type Leaser interface {
	// RegisterTTL is Register with a lease: the binding expires ttl from
	// now unless renewed. ttl <= 0 registers without a lease (never
	// expires), matching Register.
	RegisterTTL(stream, contact string, ttl time.Duration) error
	// Renew extends stream's lease to ttl from now (ErrNotFound if the
	// binding is absent or already expired). Renewing with ttl <= 0
	// removes the lease, making the binding permanent.
	Renew(stream string, ttl time.Duration) error
}

// Lister is the optional enumeration extension of a Directory: list
// every live binding under a key prefix. The fleet observability
// collector discovers scrape targets through it — daemons lease their
// metrics endpoints under a dedicated namespace prefix, so the listing
// is always the currently-live fleet. Mem and Client implement it.
type Lister interface {
	// List returns the live bindings whose keys start with prefix
	// (key -> contact); "" lists everything.
	List(prefix string) (map[string]string, error)
}

// Directory is the discovery API.
type Directory interface {
	// Register binds a stream name to contact information. Registering a
	// name that is already bound atomically replaces the contact: lookups
	// before the call see the old contact, lookups after see the new one,
	// and no lookup ever observes the name as absent in between.
	Register(stream, contact string) error
	// Lookup resolves a stream name immediately.
	Lookup(stream string) (string, error)
	// WaitLookup resolves a stream name, waiting up to timeout for it to
	// be registered. This covers readers that open a stream before the
	// writer creates it.
	WaitLookup(stream string, timeout time.Duration) (string, error)
	// Unregister removes a binding.
	Unregister(stream string) error
}

// MemOptions configures the in-process directory. The zero value is
// usable: DefaultShards lock stripes and a 1 ms janitor slack.
type MemOptions struct {
	// Shards is the number of lock stripes the key space is hashed
	// across. More shards cut contention between tenants (each key lives
	// on exactly one shard, and WaitLookup waiters are woken only by
	// changes on their own shard). <= 0 selects DefaultShards.
	Shards int
	// JanitorSlack is added to the earliest lease expiry when arming a
	// shard's purge timer: leases are purged at expiry+slack. It trades
	// purge precision for timer churn under heavy renewal traffic.
	// <= 0 selects 1 ms.
	JanitorSlack time.Duration
}

// DefaultShards is the lock-stripe count of NewMem.
const DefaultShards = 16

// Mem is an in-process directory, lock-striped across shards. The zero
// value is not usable; call NewMem or NewMemOpts.
//
// WaitLookup blocks on the owning shard's condition variable: Register
// broadcasts once per binding change rather than feeding per-waiter
// channels, so an arbitrary number of readers waiting on one stream wake
// with a single O(1) notification — and only waiters sharing the shard
// are woken at all.
type Mem struct {
	opts   MemOptions
	shards []*memShard
}

// memShard is one lock stripe: its own entry map, condition variable,
// and lease-purge timer, so tenant A's lease churn never serializes
// against tenant B's lookups on another shard.
type memShard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries map[string]memEntry
	janitor *time.Timer // fires at the earliest lease expiry on this shard
	slack   time.Duration
	closed  bool
}

// memEntry is one binding; a zero expires means no lease.
type memEntry struct {
	contact string
	expires time.Time
}

func (e memEntry) expired(now time.Time) bool {
	return !e.expires.IsZero() && !now.Before(e.expires)
}

// NewMem creates an empty in-process directory with default options.
func NewMem() *Mem { return NewMemOpts(MemOptions{}) }

// NewMemOpts creates an empty in-process directory with the given
// shard count and janitor slack.
func NewMemOpts(opts MemOptions) *Mem {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.JanitorSlack <= 0 {
		opts.JanitorSlack = time.Millisecond
	}
	d := &Mem{opts: opts, shards: make([]*memShard, opts.Shards)}
	for i := range d.shards {
		sh := &memShard{entries: make(map[string]memEntry), slack: opts.JanitorSlack}
		sh.cond = sync.NewCond(&sh.mu)
		d.shards[i] = sh
	}
	return d
}

// shard maps a qualified key to its lock stripe (FNV-1a over the full
// tenant/stream key).
func (d *Mem) shard(key string) *memShard {
	if len(d.shards) == 1 {
		return d.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	return d.shards[h.Sum32()%uint32(len(d.shards))]
}

// Register binds stream to contact and wakes pending WaitLookups. A
// stream that is already bound has its contact atomically replaced.
func (d *Mem) Register(stream, contact string) error {
	return d.RegisterTTL(stream, contact, 0)
}

// RegisterTTL implements Leaser: the binding expires ttl from now unless
// renewed (ttl <= 0 never expires).
func (d *Mem) RegisterTTL(stream, contact string, ttl time.Duration) error {
	e := memEntry{contact: contact}
	if ttl > 0 {
		e.expires = time.Now().Add(ttl)
	}
	sh := d.shard(stream)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return ErrClosed
	}
	sh.entries[stream] = e
	sh.scheduleJanitorLocked()
	sh.cond.Broadcast()
	return nil
}

// Renew implements Leaser: extends the lease to ttl from now.
func (d *Mem) Renew(stream string, ttl time.Duration) error {
	sh := d.shard(stream)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return ErrClosed
	}
	e, ok := sh.entries[stream]
	if !ok || e.expired(time.Now()) {
		delete(sh.entries, stream)
		return fmt.Errorf("%w: %q (lease expired or never registered)", ErrNotFound, stream)
	}
	if ttl > 0 {
		e.expires = time.Now().Add(ttl)
	} else {
		e.expires = time.Time{}
	}
	sh.entries[stream] = e
	sh.scheduleJanitorLocked()
	return nil
}

// scheduleJanitorLocked (re)arms the shard's purge timer for its
// earliest lease expiry. The janitor broadcast makes expiry observable
// to WaitLookup waiters without polling: they wake, fail to find the
// purged entry, and keep waiting or time out. Caller holds sh.mu.
func (sh *memShard) scheduleJanitorLocked() {
	var next time.Time
	for _, e := range sh.entries {
		if e.expires.IsZero() {
			continue
		}
		if next.IsZero() || e.expires.Before(next) {
			next = e.expires
		}
	}
	if sh.janitor != nil {
		sh.janitor.Stop()
		sh.janitor = nil
	}
	if next.IsZero() || sh.closed {
		return
	}
	sh.janitor = time.AfterFunc(time.Until(next)+sh.slack, func() {
		sh.mu.Lock()
		if !sh.closed {
			sh.purgeLocked(time.Now())
			sh.scheduleJanitorLocked()
			sh.cond.Broadcast()
		}
		sh.mu.Unlock()
	})
}

// purgeLocked drops expired bindings. Caller holds sh.mu.
func (sh *memShard) purgeLocked(now time.Time) {
	for s, e := range sh.entries {
		if e.expired(now) {
			delete(sh.entries, s)
		}
	}
}

// Lookup resolves stream or returns ErrNotFound.
func (d *Mem) Lookup(stream string) (string, error) {
	sh := d.shard(stream)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[stream]
	if !ok || e.expired(time.Now()) {
		return "", fmt.Errorf("%w: %q", ErrNotFound, stream)
	}
	return e.contact, nil
}

// WaitLookup resolves stream, blocking up to timeout for registration.
func (d *Mem) WaitLookup(stream string, timeout time.Duration) (string, error) {
	sh := d.shard(stream)
	deadline := time.Now().Add(timeout)
	// sync.Cond has no timed wait; a timer broadcast bounds the sleep.
	expired := false
	timer := time.AfterFunc(timeout, func() {
		sh.mu.Lock()
		expired = true
		sh.mu.Unlock()
		sh.cond.Broadcast()
	})
	defer timer.Stop()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if e, ok := sh.entries[stream]; ok && !e.expired(time.Now()) {
			return e.contact, nil
		}
		if sh.closed {
			return "", fmt.Errorf("%w: %q", ErrClosed, stream)
		}
		if expired || !time.Now().Before(deadline) {
			return "", fmt.Errorf("%w: %q after %v", ErrTimeout, stream, timeout)
		}
		sh.cond.Wait()
	}
}

// Unregister removes the binding (idempotent).
func (d *Mem) Unregister(stream string) error {
	sh := d.shard(stream)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.entries, stream)
	return nil
}

// Len reports the number of live (unexpired) streams across all shards.
func (d *Mem) Len() int {
	now := time.Now()
	total := 0
	for _, sh := range d.shards {
		sh.mu.Lock()
		sh.purgeLocked(now)
		total += len(sh.entries)
		sh.mu.Unlock()
	}
	return total
}

// List returns every live binding whose key starts with prefix (all
// bindings when prefix is ""). The fleet observability collector uses
// this to discover scrape targets: daemons register their metrics
// address under the "obs!" namespace with a lease, so listing that
// prefix yields exactly the live fleet. The snapshot is per-shard
// consistent, not globally atomic — fine for discovery, where a
// concurrently-registering daemon is simply picked up next sweep.
func (d *Mem) List(prefix string) (map[string]string, error) {
	now := time.Now()
	out := make(map[string]string)
	for _, sh := range d.shards {
		sh.mu.Lock()
		sh.purgeLocked(now)
		for key, e := range sh.entries {
			if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
				out[key] = e.contact
			}
		}
		sh.mu.Unlock()
	}
	return out, nil
}

// TenantLen reports the number of live streams registered under one
// tenant's namespace (tenant "" counts unqualified legacy streams).
func (d *Mem) TenantLen(tenant string) int {
	now := time.Now()
	total := 0
	for _, sh := range d.shards {
		sh.mu.Lock()
		sh.purgeLocked(now)
		for key := range sh.entries {
			if t, _ := SplitTenant(key); t == tenant {
				total++
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// Close stops every shard's janitor timer and wakes all pending
// WaitLookup waiters with ErrClosed. Further registrations fail with
// ErrClosed; lookups of surviving entries still resolve (tear-down
// order between a directory and its sessions is not forced). Close is
// idempotent. Without it, a lease janitor armed for a far-future expiry
// would keep its timer (and callback goroutine slot) alive long after a
// test scenario tore the directory down.
func (d *Mem) Close() error {
	for _, sh := range d.shards {
		sh.mu.Lock()
		sh.closed = true
		if sh.janitor != nil {
			sh.janitor.Stop()
			sh.janitor = nil
		}
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	return nil
}
