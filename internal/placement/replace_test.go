package placement

import (
	"testing"

	"flexio/internal/evpath"
	"flexio/internal/machine"
)

// replaceSpec is a 2-sim / variable-ana instance on a 4-node Titan slice
// (16 cores per node) with a trivial comm graph.
func replaceSpec(nAna int) *Spec {
	return gtsLikeSpecN(machine.Titan(4), 2, nAna)
}

func gtsLikeSpecN(m *machine.Machine, nSim, nAna int) *Spec {
	s := gtsLikeSpec(m, nSim, 1)
	// gtsLikeSpec pairs one analytics per sim; widen/narrow by rebuilding.
	if nAna != nSim {
		s = s3dLikeSpec(m, nSim, nAna)
	}
	return s
}

func bound(spec *Spec, simCore, anaCore []int) *Placement {
	return &Placement{Spec: spec, Policy: "manual", SimCore: simCore, AnaCore: anaCore}
}

func TestReplaceHelperCoreToStaging(t *testing.T) {
	spec := replaceSpec(2)
	// Old: both analytics share node 0 with the sims (helper-core).
	old := bound(spec, []int{0, 1}, []int{2, 3})
	// New: both analytics move to node 1 (staging).
	neu := bound(spec, []int{0, 1}, []int{16, 17})

	d, err := Replace(old, neu)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.MovedAna) != 2 || d.AddedAna != 0 || d.RemovedAna != 0 {
		t.Fatalf("moved=%v added=%d removed=%d", d.MovedAna, d.AddedAna, d.RemovedAna)
	}
	if got := d.AnaNodes; len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("AnaNodes = %v", got)
	}
	// Every surviving pair flips shm -> tcp.
	if len(d.Flipped) != 4 {
		t.Fatalf("flipped %d pairs, want 4", len(d.Flipped))
	}
	for _, f := range d.Flipped {
		if f.From != evpath.ShmTransport || f.To != evpath.TCPTransport {
			t.Fatalf("pair (%d,%d): %v -> %v", f.Writer, f.Reader, f.From, f.To)
		}
	}
	if !d.KindChanged {
		t.Fatal("helper-core -> staging must report a kind change")
	}
	if d.Redials != 4 {
		t.Fatalf("Redials = %d, want 4", d.Redials)
	}
}

func TestReplaceRankCountChange(t *testing.T) {
	specOld := replaceSpec(2)
	specNew := replaceSpec(3)
	specNew.Machine = specOld.Machine
	old := bound(specOld, []int{0, 1}, []int{2, 3})
	neu := bound(specNew, []int{0, 1}, []int{2, 16, 17})

	d, err := Replace(old, neu)
	if err != nil {
		t.Fatal(err)
	}
	if d.AddedAna != 1 || d.RemovedAna != 0 {
		t.Fatalf("added=%d removed=%d", d.AddedAna, d.RemovedAna)
	}
	// Rank 0 stays on node 0; rank 1 moves node 0 -> node 1.
	if len(d.MovedAna) != 1 || d.MovedAna[0] != 1 {
		t.Fatalf("MovedAna = %v", d.MovedAna)
	}
	// 2 sims x surviving rank 1 flip shm->tcp; rank 0's pairs keep shm.
	if len(d.Flipped) != 2 {
		t.Fatalf("flipped %d pairs, want 2", len(d.Flipped))
	}
	if d.Redials != 6 {
		t.Fatalf("Redials = %d, want 6 (2 sims x 3 ranks)", d.Redials)
	}
}

func TestReplaceNoChange(t *testing.T) {
	spec := replaceSpec(2)
	old := bound(spec, []int{0, 1}, []int{2, 3})
	neu := bound(spec, []int{0, 1}, []int{2, 3})
	d, err := Replace(old, neu)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.MovedAna) != 0 || len(d.Flipped) != 0 || d.KindChanged {
		t.Fatalf("no-op replace reported changes: %+v", d)
	}
}

func TestReplaceRejectsSimChanges(t *testing.T) {
	spec := replaceSpec(2)
	old := bound(spec, []int{0, 1}, []int{2, 3})
	// Sim process 1 rebound to another core: illegal mid-run.
	if _, err := Replace(old, bound(spec, []int{0, 4}, []int{2, 3})); err == nil {
		t.Fatal("sim rebinding must be rejected")
	}
	if _, err := Replace(nil, old); err == nil {
		t.Fatal("nil placement must be rejected")
	}
	other := replaceSpec(2) // distinct *Machine
	if _, err := Replace(old, bound(other, []int{0, 1}, []int{2, 3})); err == nil {
		t.Fatal("cross-machine replace must be rejected")
	}
}
