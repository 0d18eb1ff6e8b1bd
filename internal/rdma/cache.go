package rdma

import (
	"sort"
	"sync"
)

// CacheStats exposes registration cache behaviour for the monitor and the
// Figure 4 ablation.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Reclaims      int64
	BytesRetained int64
	ModeledCost   float64 // accumulated modeled alloc+registration seconds
}

// RegCache is the persistent buffer and registration cache of Section
// II.E: "allocated and registered send and receive buffers are temporarily
// kept in a buffer pool; later data transfers try to reuse those buffers
// whenever possible. A configurable threshold value controls total memory
// usage and triggers buffer reclamation." Acquire on a miss pays the
// modeled dynamic allocation + registration cost; on a hit it is free.
type RegCache struct {
	ep       *Endpoint
	maxBytes int64

	mu    sync.Mutex
	free  map[int][]*MemRegion // size class -> free registered regions
	stats CacheStats
}

// NewRegCache creates a cache for the endpoint bounded to maxBytes of
// retained registered memory (0 = unbounded).
func NewRegCache(ep *Endpoint, maxBytes int64) *RegCache {
	return &RegCache{ep: ep, maxBytes: maxBytes, free: make(map[int][]*MemRegion)}
}

// class rounds n up to a power-of-two size class (min 4 KiB — one page).
func (c *RegCache) class(n int) int {
	k := 4096
	for k < n {
		k <<= 1
	}
	return k
}

// Acquire returns a registered region with at least n bytes, plus the
// modeled cost paid (0 on a cache hit). The returned region's usable
// prefix is r.Bytes()[:n].
func (c *RegCache) Acquire(n int) (*MemRegion, float64, error) {
	cls := c.class(n)
	c.mu.Lock()
	if stack := c.free[cls]; len(stack) > 0 {
		r := stack[len(stack)-1]
		c.free[cls] = stack[:len(stack)-1]
		c.stats.Hits++
		c.stats.BytesRetained -= int64(cls)
		c.mu.Unlock()
		return r, 0, nil
	}
	c.stats.Misses++
	c.mu.Unlock()

	buf := make([]byte, cls)
	cost := c.ep.fab.AllocCost(cls)
	r, regCost, err := c.ep.RegisterMemory(buf)
	if err != nil {
		return nil, 0, err
	}
	cost += regCost
	c.mu.Lock()
	c.stats.ModeledCost += cost
	c.mu.Unlock()
	return r, cost, nil
}

// Release parks the region for reuse. If retaining it would exceed the
// threshold, the region is unregistered and dropped (reclamation).
func (c *RegCache) Release(r *MemRegion) {
	cls := len(r.buf)
	c.mu.Lock()
	if c.maxBytes > 0 && c.stats.BytesRetained+int64(cls) > c.maxBytes {
		c.stats.Reclaims++
		c.mu.Unlock()
		c.ep.UnregisterMemory(r) //nolint:errcheck // best-effort reclaim
		return
	}
	c.free[cls] = append(c.free[cls], r)
	c.stats.BytesRetained += int64(cls)
	c.mu.Unlock()
}

// Drain unregisters and drops every cached region; used at shutdown.
func (c *RegCache) Drain() {
	c.mu.Lock()
	classes := make([]int, 0, len(c.free))
	for cls := range c.free {
		classes = append(classes, cls)
	}
	sort.Ints(classes)
	var regions []*MemRegion
	for _, cls := range classes {
		regions = append(regions, c.free[cls]...)
		delete(c.free, cls)
	}
	c.stats.BytesRetained = 0
	c.mu.Unlock()
	for _, r := range regions {
		c.ep.UnregisterMemory(r) //nolint:errcheck
	}
}

// Stats returns a snapshot of cache counters.
func (c *RegCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
