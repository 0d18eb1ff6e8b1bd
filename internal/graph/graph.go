// Package graph provides weighted communication graphs and the balanced
// k-way partitioning / refinement primitives that FlexIO's placement
// algorithms are built on (Section III.B). The original system used the
// SCOTCH library for graph mapping; this package implements the same
// class of algorithm from scratch: greedy balanced growth followed by
// Kernighan-Lin-style boundary refinement, applied recursively over the
// machine's architecture tree by internal/placement.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected weighted graph over vertices 0..N-1, stored as
// adjacency maps (communication matrices are sparse for nearest-neighbor
// patterns, dense only for small coupled groups).
type Graph struct {
	N   int
	adj []map[int]float64
}

// New creates an empty graph with n vertices.
func New(n int) *Graph {
	g := &Graph{N: n, adj: make([]map[int]float64, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]float64)
	}
	return g
}

// AddEdge accumulates weight onto the undirected edge {u, v}. Self-loops
// and non-positive weights are ignored.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v || w <= 0 || u < 0 || v < 0 || u >= g.N || v >= g.N {
		return
	}
	g.adj[u][v] += w
	g.adj[v][u] += w
}

// Weight reports the edge weight between u and v (0 if absent).
func (g *Graph) Weight(u, v int) float64 {
	if u < 0 || u >= g.N {
		return 0
	}
	return g.adj[u][v]
}

// Neighbors iterates u's neighbors in deterministic order.
func (g *Graph) Neighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Degree returns the total edge weight incident to u.
func (g *Graph) Degree(u int) float64 {
	var d float64
	for _, w := range g.adj[u] {
		d += w
	}
	return d
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var t float64
	for u := range g.adj {
		t += g.Degree(u)
	}
	return t / 2
}

// CutCost returns the weight of edges crossing parts under the given
// assignment (part[v] = part index).
func (g *Graph) CutCost(part []int) float64 {
	var cut float64
	for u := range g.adj {
		for v, w := range g.adj[u] {
			if v > u && part[u] != part[v] {
				cut += w
			}
		}
	}
	return cut
}

// PartitionWeighted splits the vertex subset `verts` into k parts with the
// given capacities (len(capacities) == k, enough in total for every
// vertex's size), minimizing the weighted cut
// heuristically. It returns part[i] for each verts[i]. Vertex verts[i]
// consumes sizes[i] units of a part's capacity (processes with multiple
// OpenMP threads occupy several cores); nil sizes means all 1.
//
// Algorithm: greedy seeded growth — repeatedly place the unassigned
// vertex with the strongest connection to any part that still fits it
// (falling back to the emptiest part for isolated vertices) — then
// boundary refinement by profitable single moves (a KL/FM-style pass).
func PartitionWeighted(g *Graph, verts []int, sizes []int, capacities []int) ([]int, error) {
	k := len(capacities)
	if k == 0 {
		return nil, fmt.Errorf("graph: no parts")
	}
	if sizes == nil {
		sizes = make([]int, len(verts))
		for i := range sizes {
			sizes[i] = 1
		}
	}
	if len(sizes) != len(verts) {
		return nil, fmt.Errorf("graph: %d sizes for %d vertices", len(sizes), len(verts))
	}
	total, need := 0, 0
	for i, c := range capacities {
		if c < 0 {
			return nil, fmt.Errorf("graph: part %d capacity %d", i, c)
		}
		total += c
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("graph: vertex %d size %d", verts[i], s)
		}
		need += s
	}
	if total < need {
		return nil, fmt.Errorf("graph: capacity %d < required %d", total, need)
	}

	inSet := make(map[int]int, len(verts)) // vertex -> index in verts
	for i, v := range verts {
		inSet[v] = i
	}
	part := make([]int, len(verts))
	for i := range part {
		part[i] = -1
	}
	load := make([]int, k)

	// conn[i][p] = weight from verts[i] into part p (maintained lazily).
	conn := make([][]float64, len(verts))
	for i := range conn {
		conn[i] = make([]float64, k)
	}

	assign := func(i, p int) {
		part[i] = p
		load[p] += sizes[i]
		for _, nb := range g.Neighbors(verts[i]) {
			if j, ok := inSet[nb]; ok && part[j] == -1 {
				conn[j][p] += g.Weight(verts[i], nb)
			}
		}
	}

	for n := 0; n < len(verts); n++ {
		bestI, bestP, bestGain := -1, -1, -1.0
		for i := range verts {
			if part[i] != -1 {
				continue
			}
			for p := 0; p < k; p++ {
				if load[p]+sizes[i] > capacities[p] {
					continue
				}
				gain := conn[i][p]
				// Prefer emptier parts on ties so isolated vertices
				// spread out instead of piling into part 0, and prefer
				// heavier vertices first via a small size bonus.
				gain -= 1e-9 * float64(load[p])
				gain += 1e-12 * float64(sizes[i])
				if gain > bestGain {
					bestGain, bestI, bestP = gain, i, p
				}
			}
		}
		if bestI == -1 {
			return nil, fmt.Errorf("graph: no feasible assignment (fragmented capacity)")
		}
		assign(bestI, bestP)
	}

	refineMoves(g, verts, sizes, part, load, capacities, k)
	refineSwaps(g, verts, sizes, part)
	refineMoves(g, verts, sizes, part, load, capacities, k)
	return part, nil
}

// refineSwaps performs Kernighan-Lin-style pairwise exchanges between
// equal-sized vertices in different parts. Unlike single moves, swaps
// make progress even when every part is exactly full — the common case
// when processes tile the machine.
func refineSwaps(g *Graph, verts []int, sizes, part []int) {
	inSet := make(map[int]int, len(verts))
	for i, v := range verts {
		inSet[v] = i
	}
	// connTo(i, p): weight from verts[i] into part p.
	connTo := func(i int) map[int]float64 {
		m := make(map[int]float64)
		for _, nb := range g.Neighbors(verts[i]) {
			if j, ok := inSet[nb]; ok {
				m[part[j]] += g.Weight(verts[i], nb)
			}
		}
		return m
	}
	const maxPasses = 3
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		// Restrict to boundary vertices (those with any external edge).
		var boundary []int
		for i, v := range verts {
			for _, nb := range g.Neighbors(v) {
				if j, ok := inSet[nb]; ok && part[j] != part[i] {
					boundary = append(boundary, i)
					break
				}
			}
		}
		for ai := 0; ai < len(boundary); ai++ {
			a := boundary[ai]
			ca := connTo(a)
			for bi := ai + 1; bi < len(boundary); bi++ {
				b := boundary[bi]
				if part[a] == part[b] || sizes[a] != sizes[b] {
					continue
				}
				cb := connTo(b)
				pa, pb := part[a], part[b]
				// Gain of swapping a<->b: external becomes internal and
				// vice versa; subtract twice the direct edge (it stays
				// cut either way but is counted in both conn terms).
				direct := g.Weight(verts[a], verts[b])
				gain := (ca[pb] - ca[pa]) + (cb[pa] - cb[pb]) - 2*direct
				if gain > 1e-12 {
					part[a], part[b] = pb, pa
					improved = true
					ca = connTo(a)
				}
			}
		}
		if !improved {
			return
		}
	}
}

// refineMoves performs greedy single-vertex moves while they reduce the
// cut and respect capacities (a bounded FM-style pass).
func refineMoves(g *Graph, verts []int, sizes, part, load, capacities []int, k int) {
	inSet := make(map[int]int, len(verts))
	for i, v := range verts {
		inSet[v] = i
	}
	const maxPasses = 4
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i, v := range verts {
			cur := part[i]
			// Connection of v to each part.
			connTo := make([]float64, k)
			for _, nb := range g.Neighbors(v) {
				if j, ok := inSet[nb]; ok {
					connTo[part[j]] += g.Weight(v, nb)
				}
			}
			bestP, bestGain := cur, 0.0
			for p := 0; p < k; p++ {
				if p == cur || load[p]+sizes[i] > capacities[p] {
					continue
				}
				gain := connTo[p] - connTo[cur]
				if gain > bestGain+1e-12 {
					bestGain, bestP = gain, p
				}
			}
			if bestP != cur {
				load[cur] -= sizes[i]
				load[bestP] += sizes[i]
				part[i] = bestP
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}
