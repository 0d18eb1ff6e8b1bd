package directory

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// Lookup benchmarks for the sharded in-memory directory. The directory
// sits on the discovery path of every stream bootstrap and rank-host
// dial, so lookups must stay cheap as tenants multiply; TestGates holds
// the single-threaded lookup to its bound in gates.json.

const (
	benchTenants = 64
	benchStreams = 64
)

func benchDir(b testing.TB) (*Mem, []string) {
	b.Helper()
	m := NewMem()
	keys := make([]string, 0, benchTenants*benchStreams)
	for t := 0; t < benchTenants; t++ {
		tenant := fmt.Sprintf("t%02d", t)
		for s := 0; s < benchStreams; s++ {
			k := Qualify(tenant, fmt.Sprintf("stream-%02d", s))
			if err := m.Register(k, "contact://"+k); err != nil {
				b.Fatal(err)
			}
			keys = append(keys, k)
		}
	}
	return m, keys
}

var sinkStr string

// lookups runs n single-threaded lookups, round-robin over keys.
func lookups(tb testing.TB, m *Mem, keys []string) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			c, err := m.Lookup(keys[i%len(keys)])
			if err != nil {
				tb.Fatal(err)
			}
			sinkStr = c
		}
	}
}

func BenchmarkDirectoryLookup(b *testing.B) {
	m, keys := benchDir(b)
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	lookups(b, m, keys)(b.N)
}

// BenchmarkDirectoryLookupParallel exercises the lock striping: lookups
// from many goroutines land on different shards and must scale instead
// of convoying on one mutex.
func BenchmarkDirectoryLookupParallel(b *testing.B) {
	m, keys := benchDir(b)
	defer m.Close()
	var next uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := atomic.AddUint64(&next, 1) * 7919 // spread starting points
		for pb.Next() {
			c, err := m.Lookup(keys[i%uint64(len(keys))])
			if err != nil {
				b.Fatal(err)
			}
			sinkStr = c
			i++
		}
	})
}
