package shm

import (
	"fmt"
	"sort"
	"sync"
)

// PoolStats reports buffer pool behaviour for the performance monitor.
type PoolStats struct {
	Allocs     int64 // buffers newly allocated
	Reuses     int64 // buffers served from the free list
	Returns    int64 // buffers given back
	Reclaims   int64 // buffers dropped to enforce MaxBytes
	BytesInUse int64 // bytes currently lent out
	BytesFree  int64 // bytes parked on the free list
	HighWater  int64 // peak BytesInUse since the pool was created
}

// BufferPool is the producer-owned shared-memory buffer pool used for
// large messages (Section II.D): the producer acquires a buffer of the
// closest size from a free list (allocating on miss), fills it, and passes
// a control message; the consumer copies out and returns the buffer to the
// free list. MaxBytes bounds total pool memory — exceeding it triggers
// reclamation of free buffers, mirroring the paper's "configurable
// threshold value controls total memory usage".
type BufferPool struct {
	mu       sync.Mutex
	free     map[int][][]byte // size class -> stack of free buffers
	classes  []int            // sorted size classes present in free
	maxBytes int64
	stats    PoolStats
}

// NewBufferPool creates a pool bounded to maxBytes of total retained
// memory (0 means unbounded).
func NewBufferPool(maxBytes int64) *BufferPool {
	return &BufferPool{free: make(map[int][][]byte), maxBytes: maxBytes}
}

// sizeClass rounds n up to the next power of two (min 256 bytes) so that
// "a buffer of the closest size" can be found without an exact-match scan.
func sizeClass(n int) int {
	c := 256
	for c < n {
		c <<= 1
	}
	return c
}

// Get returns a buffer with length n (capacity is the size class). It
// reuses a free buffer when one of the right class exists.
func (p *BufferPool) Get(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("shm: negative buffer size %d", n)
	}
	class := sizeClass(n)
	p.mu.Lock()
	defer p.mu.Unlock()
	if stack := p.free[class]; len(stack) > 0 {
		buf := stack[len(stack)-1]
		p.free[class] = stack[:len(stack)-1]
		p.stats.Reuses++
		p.stats.BytesFree -= int64(class)
		p.stats.BytesInUse += int64(class)
		if p.stats.BytesInUse > p.stats.HighWater {
			p.stats.HighWater = p.stats.BytesInUse
		}
		return buf[:n], nil
	}
	p.stats.Allocs++
	p.stats.BytesInUse += int64(class)
	if p.stats.BytesInUse > p.stats.HighWater {
		p.stats.HighWater = p.stats.BytesInUse
	}
	return make([]byte, n, class), nil
}

// Put returns a buffer to the free list. The buffer must have come from
// Get (its capacity must be a size class). If retaining it would exceed
// MaxBytes, it is dropped for the garbage collector instead (reclaim).
func (p *BufferPool) Put(buf []byte) {
	class := cap(buf)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Returns++
	p.stats.BytesInUse -= int64(class)
	if p.maxBytes > 0 && p.stats.BytesFree+int64(class) > p.maxBytes {
		p.stats.Reclaims++
		return
	}
	if _, ok := p.free[class]; !ok {
		p.classes = append(p.classes, class)
		sort.Ints(p.classes)
	}
	p.free[class] = append(p.free[class], buf[:class])
	p.stats.BytesFree += int64(class)
}

// Forget takes a buffer obtained from Get out of the pool's accounting
// without retaining it: the caller keeps the buffer for good (the
// garbage collector frees it), so BytesInUse stops counting it. For
// consumers that cannot say when they are done with a buffer.
func (p *BufferPool) Forget(buf []byte) {
	p.mu.Lock()
	p.stats.BytesInUse -= int64(cap(buf))
	p.mu.Unlock()
}

// Stats returns a snapshot of pool counters.
func (p *BufferPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Reclaim drops all free buffers, returning the number of bytes released.
func (p *BufferPool) Reclaim() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	released := p.stats.BytesFree
	for c := range p.free {
		p.stats.Reclaims += int64(len(p.free[c]))
		delete(p.free, c)
	}
	p.classes = p.classes[:0]
	p.stats.BytesFree = 0
	return released
}
