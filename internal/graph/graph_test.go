package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func ring(n int, w float64) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, w)
	}
	return g
}

func TestAddEdgeSymmetricAccumulates(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 3)
	if g.Weight(0, 1) != 5 || g.Weight(1, 0) != 5 {
		t.Fatalf("weight = %g/%g, want 5", g.Weight(0, 1), g.Weight(1, 0))
	}
	g.AddEdge(2, 2, 9) // self loop ignored
	if g.Weight(2, 2) != 0 {
		t.Fatal("self loop must be ignored")
	}
	g.AddEdge(0, 1, -4) // non-positive ignored
	if g.Weight(0, 1) != 5 {
		t.Fatal("negative weight must be ignored")
	}
	g.AddEdge(-1, 5, 1) // out of range ignored
}

func TestDegreeAndTotal(t *testing.T) {
	g := ring(4, 1)
	if g.Degree(0) != 2 {
		t.Fatalf("degree = %g", g.Degree(0))
	}
	if g.TotalWeight() != 4 {
		t.Fatalf("total = %g", g.TotalWeight())
	}
}

func TestCutCost(t *testing.T) {
	g := ring(4, 1)
	// Split {0,1} | {2,3}: cut edges 1-2 and 3-0.
	if got := g.CutCost([]int{0, 0, 1, 1}); got != 2 {
		t.Fatalf("cut = %g, want 2", got)
	}
	if got := g.CutCost([]int{0, 0, 0, 0}); got != 0 {
		t.Fatalf("single part cut = %g", got)
	}
}

func TestBisectRing(t *testing.T) {
	// An 8-ring's optimal bisection cuts exactly 2 edges; greedy+refine
	// must find a contiguous split.
	g := ring(8, 1)
	verts := []int{0, 1, 2, 3, 4, 5, 6, 7}
	part, err := PartitionWeighted(g, verts, nil, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	sizes := [2]int{}
	for _, p := range part {
		sizes[p]++
	}
	if sizes[0] != 4 || sizes[1] != 4 {
		t.Fatalf("sizes = %v", sizes)
	}
	if cut := g.CutCost(partFull(part, verts, 8)); cut > 2 {
		t.Fatalf("ring bisection cut = %g, want 2", cut)
	}
}

// partFull expands a subset partition into a full assignment for CutCost.
func partFull(part []int, verts []int, n int) []int {
	full := make([]int, n)
	for i := range full {
		full[i] = -1
	}
	for i, v := range verts {
		full[v] = part[i]
	}
	return full
}

func TestPartitionCapacities(t *testing.T) {
	g := New(6)
	verts := []int{0, 1, 2, 3, 4, 5}
	part, err := PartitionWeighted(g, verts, nil, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	load := map[int]int{}
	for _, p := range part {
		load[p]++
	}
	for p, l := range load {
		if l > 2 {
			t.Fatalf("part %d overloaded: %d", p, l)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	g := New(4)
	if _, err := PartitionWeighted(g, []int{0, 1}, nil, nil); err == nil {
		t.Error("zero parts must error")
	}
	if _, err := PartitionWeighted(g, []int{0, 1, 2}, nil, []int{1, 1}); err == nil {
		t.Error("insufficient capacity must error")
	}
	if _, err := PartitionWeighted(g, []int{0}, nil, []int{-1, 2}); err == nil {
		t.Error("negative capacity must error")
	}
}

func TestPartitionKeepsCliquesTogether(t *testing.T) {
	// Two 3-cliques with a weak bridge: the partitioner must not split a
	// clique.
	g := New(6)
	for _, c := range [][3]int{{0, 1, 2}, {3, 4, 5}} {
		g.AddEdge(c[0], c[1], 10)
		g.AddEdge(c[1], c[2], 10)
		g.AddEdge(c[0], c[2], 10)
	}
	g.AddEdge(2, 3, 1) // bridge
	part, err := PartitionWeighted(g, []int{0, 1, 2, 3, 4, 5}, nil, []int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if part[0] != part[1] || part[1] != part[2] {
		t.Fatalf("clique A split: %v", part)
	}
	if part[3] != part[4] || part[4] != part[5] {
		t.Fatalf("clique B split: %v", part)
	}
	if part[0] == part[3] {
		t.Fatalf("cliques merged: %v", part)
	}
}

func TestPartitionCoupledPairs(t *testing.T) {
	// The data-aware pattern: sim rank i talks to analytics rank i with
	// heavy weight; partitioning into pairs must co-locate them.
	const pairs = 8
	g := New(2 * pairs)
	for i := 0; i < pairs; i++ {
		g.AddEdge(i, pairs+i, 100)
	}
	verts := make([]int, 2*pairs)
	caps := make([]int, pairs)
	for i := range verts {
		verts[i] = i
	}
	for i := range caps {
		caps[i] = 2
	}
	part, err := PartitionWeighted(g, verts, nil, caps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pairs; i++ {
		if part[i] != part[pairs+i] {
			t.Fatalf("pair %d split: sim in %d, ana in %d", i, part[i], part[pairs+i])
		}
	}
}

func TestPartitionRespectsCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(20)
		g := New(n)
		for e := 0; e < n*2; e++ {
			g.AddEdge(r.Intn(n), r.Intn(n), float64(1+r.Intn(10)))
		}
		k := 1 + r.Intn(4)
		caps := make([]int, k)
		total := 0
		for i := range caps {
			caps[i] = 1 + r.Intn(n)
			total += caps[i]
		}
		if total < n {
			caps[0] += n - total
		}
		verts := make([]int, n)
		for i := range verts {
			verts[i] = i
		}
		part, err := PartitionWeighted(g, verts, nil, caps)
		if err != nil {
			return false
		}
		load := make([]int, k)
		for _, p := range part {
			if p < 0 || p >= k {
				return false
			}
			load[p]++
		}
		for i := range load {
			if load[i] > caps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRefinementImprovesBadSeed(t *testing.T) {
	// Build a graph where greedy could seed poorly: verify final cut is
	// no worse than a naive contiguous split.
	r := rand.New(rand.NewSource(7))
	const n = 24
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i/12 == j/12 {
				g.AddEdge(i, j, 5+float64(r.Intn(5)))
			} else if r.Intn(4) == 0 {
				g.AddEdge(i, j, 1)
			}
		}
	}
	verts := make([]int, n)
	for i := range verts {
		verts[i] = i
	}
	part, err := PartitionWeighted(g, verts, nil, []int{12, 12})
	if err != nil {
		t.Fatal(err)
	}
	naive := make([]int, n)
	for i := range naive {
		naive[i] = 0
		if i%2 == 1 {
			naive[i] = 1
		}
	}
	if g.CutCost(part) > g.CutCost(naive) {
		t.Fatalf("partition cut %g worse than interleaved naive %g", g.CutCost(part), g.CutCost(naive))
	}
}
