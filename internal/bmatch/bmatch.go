// Package bmatch solves the maximum bipartite b-matching problem: given a
// bipartite graph (U, V, E) and degree bounds b(x) for every vertex, find a
// maximum subset M ⊆ E such that every vertex x is incident to at most b(x)
// edges of M. The problem is polynomial (Gabow, STOC'83); this package uses
// the standard reduction to maximum flow solved with Dinic's algorithm.
//
// The Bounded_Length algorithm (§3.2, step 2(d)–(e)) uses b-matching to
// assign independent sets to machines: b(machine) = g, b(IS) = 1.
package bmatch

import "fmt"

// Graph is a bipartite graph with nu left and nv right vertices.
type Graph struct {
	nu, nv int
	edges  [][2]int
}

// NewGraph returns an empty bipartite graph with the given side sizes.
func NewGraph(nu, nv int) *Graph {
	return &Graph{nu: nu, nv: nv}
}

// AddEdge adds the edge (u, v); u indexes U, v indexes V. Parallel edges
// are permitted but never both used by a maximum b-matching with b(v) = 1.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.nu || v < 0 || v >= g.nv {
		panic(fmt.Sprintf("bmatch: edge (%d,%d) out of range (%d,%d)", u, v, g.nu, g.nv))
	}
	g.edges = append(g.edges, [2]int{u, v})
}

// Edges returns the number of edges.
func (g *Graph) Edges() int { return len(g.edges) }

// Solve computes a maximum b-matching. bu and bv give the degree bounds of
// the left and right vertices; a nil slice means bound 1 everywhere. The
// matched edges are returned as (u, v) pairs.
func (g *Graph) Solve(bu, bv []int) (size int, matched [][2]int, err error) {
	if bu == nil {
		bu = ones(g.nu)
	}
	if bv == nil {
		bv = ones(g.nv)
	}
	if len(bu) != g.nu || len(bv) != g.nv {
		return 0, nil, fmt.Errorf("bmatch: bound lengths (%d,%d), want (%d,%d)", len(bu), len(bv), g.nu, g.nv)
	}
	for _, b := range bu {
		if b < 0 {
			return 0, nil, fmt.Errorf("bmatch: negative bound %d", b)
		}
	}
	for _, b := range bv {
		if b < 0 {
			return 0, nil, fmt.Errorf("bmatch: negative bound %d", b)
		}
	}
	// Nodes: 0 = source, 1..nu = U, nu+1..nu+nv = V, nu+nv+1 = sink.
	src := 0
	sink := g.nu + g.nv + 1
	net := newFlowNet(sink + 1)
	for u, b := range bu {
		net.addEdge(src, 1+u, b)
	}
	for v, b := range bv {
		net.addEdge(1+g.nu+v, sink, b)
	}
	idx := make([]int, len(g.edges))
	for i, e := range g.edges {
		idx[i] = net.addEdge(1+e[0], 1+g.nu+e[1], 1)
	}
	size = net.maxFlow(src, sink)
	for i, e := range g.edges {
		if net.adj[1+e[0]][idx[i]].cap == 0 { // saturated ⇒ matched
			matched = append(matched, e)
		}
	}
	return size, matched, nil
}

// Perfect reports whether a b-matching saturating every right vertex exists,
// i.e. the maximum matching has size Σ bv. This is the feasibility question
// Bounded_Length asks: can all independent sets be placed on machines?
func (g *Graph) Perfect(bu, bv []int) (bool, [][2]int, error) {
	if bv == nil {
		bv = ones(g.nv)
	}
	want := 0
	for _, b := range bv {
		want += b
	}
	size, matched, err := g.Solve(bu, bv)
	if err != nil {
		return false, nil, err
	}
	return size == want, matched, nil
}

func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
