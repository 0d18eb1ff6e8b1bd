package obsplane

import (
	"testing"

	"flexio/internal/gate"
)

// The merge bound is generous (~4x measured): it catches an accidental
// quadratic stitch or a per-event re-scan across sweeps, not scheduler
// jitter.
func TestGates(t *testing.T) {
	gate.Check(t, map[string]gate.Measure{
		"obsplane.merge_ns": gate.Ns(snapshots(t, benchCollector(8, 2048))),
	})
}
