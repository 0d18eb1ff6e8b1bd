package directory

import (
	"testing"

	"flexio/internal/gate"
)

// The lookup bound is generous (the measured cost is a hash, one striped
// mutex and a map probe): it catches an accidental global lock or a
// per-lookup allocation, not scheduler jitter.
func TestGates(t *testing.T) {
	m, keys := benchDir(t)
	defer m.Close()
	op := lookups(t, m, keys)
	gate.Check(t, map[string]gate.Measure{
		"directory.lookup_ns":     gate.Ns(op),
		"directory.lookup_allocs": gate.Allocs(op),
	})
}
