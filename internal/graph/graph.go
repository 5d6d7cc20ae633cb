package graph

import (
	"fmt"
	"math/big"
	"slices"

	"repro/internal/bitvec"
)

// Graph is a simple undirected graph on vertices 0..n-1, stored as an
// adjacency matrix of bit rows: row v holds bit u iff {u,v} is an edge,
// in w = ⌈n/64⌉ words, and the n rows share one slice.
type Graph struct {
	n, w int
	bits []uint64
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	w := (n + 63) / 64
	return &Graph{n: n, w: w, bits: make([]uint64, n*w)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Row returns v's adjacency row: bit u is set iff {u,v} is an edge.  It is
// a view into the graph: writing through it edits the graph, which must
// stay symmetric (as internal/tw's fill graphs do).
func (g *Graph) Row(v int) []uint64 { return g.bits[v*g.w : (v+1)*g.w : (v+1)*g.w] }

// AddEdge adds the undirected edge {u,v}; self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return
	}
	g.bits[u*g.w+v>>6] |= 1 << (v & 63)
	g.bits[v*g.w+u>>6] |= 1 << (u & 63)
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	return g.bits[u*g.w+v>>6]&(1<<(v&63)) != 0
}

// Neighbors returns the sorted neighbor list of v.
func (g *Graph) Neighbors(v int) []int { return slices.Collect(bitvec.Each(g.Row(v))) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return bitvec.Count(g.bits) / 2 }

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph { return &Graph{n: g.n, w: g.w, bits: slices.Clone(g.bits)} }

// Subgraph returns the induced subgraph on the given vertices together
// with the old-index list (new vertex i corresponds to verts[i]): verts
// itself when it is ascending and distinct, else a sorted copy.
func (g *Graph) Subgraph(verts []int) (*Graph, []int) {
	vs := verts
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			vs = slices.Compact(slices.Sorted(slices.Values(verts)))
			break
		}
	}
	return g.SubgraphInto(New(len(vs)), vs), vs
}

// SubgraphInto writes the subgraph induced on verts, which must be
// ascending and distinct, into dst (new vertex i is verts[i]) and returns
// dst.  It reuses dst's rows when they fit.
func (g *Graph) SubgraphInto(dst *Graph, verts []int) *Graph {
	n := len(verts)
	dst.n, dst.w = n, (n+63)/64
	if cap(dst.bits) < n*dst.w {
		dst.bits = make([]uint64, n*dst.w)
	}
	dst.bits = dst.bits[:n*dst.w]
	clear(dst.bits)
	for i, v := range verts {
		for j, u := range verts[:i] {
			if g.HasEdge(v, u) {
				dst.AddEdge(i, j)
			}
		}
	}
	return dst
}

// All returns the set of all n vertices, in the words of a row.
func (g *Graph) All() []uint64 {
	all := make([]uint64, g.w)
	for v := 0; v < g.n; v++ {
		all[v>>6] |= 1 << (v & 63)
	}
	return all
}

// Split returns the connected components of the subgraph induced on the
// vertex set within (a row-length bit set), as vertex sets of the same
// length ordered by their smallest vertex.
func (g *Graph) Split(within []uint64) [][]uint64 {
	left := slices.Clone(within)
	var comps [][]uint64
	for s := range bitvec.Each(within) {
		if left[s>>6]&(1<<(s&63)) == 0 {
			continue
		}
		comp := make([]uint64, g.w)
		comp[s>>6] = 1 << (s & 63)
		left[s>>6] &^= comp[s>>6]
		for grew := true; grew; { // add the neighbours still left, to a fixpoint
			grew = false
			for v := range bitvec.Each(comp) {
				for j, m := range g.Row(v) {
					if m &= left[j]; m != 0 {
						comp[j], left[j], grew = comp[j]|m, left[j]&^m, true
					}
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// Components returns the connected components as sorted vertex lists,
// ordered by smallest vertex.
func (g *Graph) Components() [][]int {
	var comps [][]int
	for _, set := range g.Split(g.All()) {
		comps = append(comps, slices.Collect(bitvec.Each(set)))
	}
	return comps
}

// IsConnected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) IsConnected() bool { return len(g.Split(g.All())) <= 1 }

// IsClique reports whether the given vertices are pairwise adjacent.
func (g *Graph) IsClique(verts []int) bool {
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			if !g.HasEdge(verts[i], verts[j]) {
				return false
			}
		}
	}
	return true
}

// AddClique adds all edges among the given vertices.
func (g *Graph) AddClique(verts []int) {
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			g.AddEdge(verts[i], verts[j])
		}
	}
}

// HasClique reports whether the graph contains a clique of size k
// (the p-Clique problem).
func (g *Graph) HasClique(k int) bool { return k <= 0 || g.cliques(k, true).Sign() > 0 }

// CountCliques returns the number of k-cliques (unordered) in the graph:
// the p-#Clique problem.
func (g *Graph) CountCliques(k int) *big.Int { return g.cliques(k, false) }

// one is the constant 1 cliques adds per clique found.
var one = big.NewInt(1)

// cliques counts the k-cliques, stopping at the first one if first is
// set.  Each clique is built once, in increasing vertex order, by
// backtracking over candidate sets that are ANDs of bit rows, pruned when
// too few candidates are left to complete it.
func (g *Graph) cliques(k int, first bool) *big.Int {
	total := new(big.Int)
	if k <= 0 {
		return total.SetInt64(int64(max(0, 1+k))) // one empty clique
	}
	var rec func(cands []uint64, depth int) bool
	rec = func(cands []uint64, depth int) bool {
		if depth == k {
			total.Add(total, one)
			return first
		}
		if depth+bitvec.Count(cands) < k {
			return false
		}
		for v := range bitvec.Each(cands) {
			next := make([]uint64, g.w)
			for j, m := range g.Row(v)[v>>6:] {
				next[v>>6+j] = m & cands[v>>6+j]
			}
			next[v>>6] &^= 1<<(v&63)<<1 - 1 // only later vertices
			if rec(next, depth+1) {
				return true
			}
		}
		return false
	}
	rec(g.All(), 0)
	return total
}

// String renders the graph as an edge list.
func (g *Graph) String() string {
	s := fmt.Sprintf("graph(n=%d;", g.n)
	for v := 0; v < g.n; v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				s += fmt.Sprintf(" %d-%d", v, u)
			}
		}
	}
	return s + ")"
}
