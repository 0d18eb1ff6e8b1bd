package placement

import (
	"fmt"

	"flexio/internal/evpath"
)

// PairChange records one writer-reader pair whose transport flips when a
// placement is replaced (e.g. shm -> tcp because the reader moved off
// the writer's node).
type PairChange struct {
	Writer, Reader int
	From, To       evpath.TransportKind
}

// Delta describes what a mid-run switch from one placement to another
// actually changes — the control-plane work a core.ReaderGroup.Reconfigure
// must perform. It separates the cheap part (ranks that stay put keep
// their transport kind) from the expensive part (moved ranks, flipped
// transports, added/removed ranks, all of which force re-dials).
type Delta struct {
	Old, New *Placement

	// AnaNodes is the node id of each analytics rank under the new
	// placement — exactly the Nodes field a core.ReconfigSpec wants.
	AnaNodes []int
	// MovedAna lists analytics ranks present in both placements whose node
	// changed.
	MovedAna []int
	// AddedAna / RemovedAna count rank-count changes (N -> N').
	AddedAna, RemovedAna int
	// Flipped lists surviving pairs whose transport kind changes. Pairs
	// involving added or removed ranks are not listed — they are covered
	// by the dial count below.
	Flipped []PairChange
	// Redials is the number of data connections the writer side dials
	// under the new regime (every pair re-dials at an epoch bump, even
	// unchanged ones — connections are epoch-scoped).
	Redials int
	// KindChanged reports that the placement class itself moved along the
	// paper's Figure 1 spectrum (helper-core -> staging, ...).
	KindChanged bool
}

// Replace computes the delta of switching analytics from placement old to
// placement new mid-run. The simulation side must be identical in both
// (mid-run re-placement moves analytics, never the running simulation):
// same machine, same sim process count, same sim bindings.
func Replace(oldP, newP *Placement) (*Delta, error) {
	if oldP == nil || newP == nil {
		return nil, fmt.Errorf("placement: Replace needs two placements")
	}
	if oldP.Spec == nil || newP.Spec == nil {
		return nil, fmt.Errorf("placement: Replace needs bound placements")
	}
	if oldP.Spec.Machine != newP.Spec.Machine {
		return nil, fmt.Errorf("placement: cannot replace across machines")
	}
	if oldP.Spec.NSim != newP.Spec.NSim {
		return nil, fmt.Errorf("placement: sim side changed (%d -> %d processes); only analytics can move mid-run",
			oldP.Spec.NSim, newP.Spec.NSim)
	}
	for i := range oldP.SimCore {
		if i < len(newP.SimCore) && oldP.SimCore[i] != newP.SimCore[i] {
			return nil, fmt.Errorf("placement: sim process %d rebound (core %d -> %d); only analytics can move mid-run",
				i, oldP.SimCore[i], newP.SimCore[i])
		}
	}

	m := newP.Spec.Machine
	d := &Delta{Old: oldP, New: newP}
	oldN, newN := len(oldP.AnaCore), len(newP.AnaCore)
	if newN > oldN {
		d.AddedAna = newN - oldN
	} else {
		d.RemovedAna = oldN - newN
	}
	d.AnaNodes = make([]int, newN)
	for r, c := range newP.AnaCore {
		d.AnaNodes[r] = m.NodeOfCore(c)
	}

	common := oldN
	if newN < common {
		common = newN
	}
	for r := 0; r < common; r++ {
		if m.NodeOfCore(oldP.AnaCore[r]) != m.NodeOfCore(newP.AnaCore[r]) {
			d.MovedAna = append(d.MovedAna, r)
		}
	}

	oldT := oldP.TransportFor()
	newT := newP.TransportFor()
	for w := 0; w < newP.Spec.NSim; w++ {
		for r := 0; r < common; r++ {
			fromKind, _, _ := oldT(w, r)
			toKind, _, _ := newT(w, r)
			if fromKind != toKind {
				d.Flipped = append(d.Flipped, PairChange{Writer: w, Reader: r, From: fromKind, To: toKind})
			}
		}
	}
	d.Redials = newP.Spec.NSim * newN
	d.KindChanged = oldP.Kind() != newP.Kind()
	return d, nil
}
