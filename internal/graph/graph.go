package graph

import (
	"fmt"
	"math/big"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..n-1.
type Graph struct {
	n   int
	adj []map[int]bool
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	g := &Graph{n: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge adds the undirected edge {u,v}; self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	return g.adj[u][v]
}

// Neighbors returns the sorted neighbor list of v.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for v, a := range g.adj {
		for u := range a {
			c.adj[v][u] = true
		}
	}
	return c
}

// Subgraph returns the induced subgraph on the given vertices together
// with the old-index list (new vertex i corresponds to verts[i]).
func (g *Graph) Subgraph(verts []int) (*Graph, []int) {
	vs := append([]int(nil), verts...)
	sort.Ints(vs)
	pos := make(map[int]int, len(vs))
	for i, v := range vs {
		pos[v] = i
	}
	sub := New(len(vs))
	for i, v := range vs {
		for u := range g.adj[v] {
			if j, ok := pos[u]; ok {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub, vs
}

// Components returns the connected components as sorted vertex lists,
// ordered by smallest vertex.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) IsConnected() bool {
	return g.n <= 1 || len(g.Components()) == 1
}

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
// (the p-Clique problem).  Degree-ordered backtracking with pruning.
func (g *Graph) HasClique(k int) bool {
	if k <= 0 {
		return true
	}
	if k == 1 {
		return g.n >= 1
	}
	order := g.degeneracyOrder()
	cur := make([]int, 0, k)
	var rec func(cands []int) bool
	rec = func(cands []int) bool {
		if len(cur) == k {
			return true
		}
		if len(cur)+len(cands) < k {
			return false
		}
		for i, v := range cands {
			if len(cur)+(len(cands)-i) < k {
				return false
			}
			var next []int
			for _, u := range cands[i+1:] {
				if g.adj[v][u] {
					next = append(next, u)
				}
			}
			cur = append(cur, v)
			if rec(next) {
				return true
			}
			cur = cur[:len(cur)-1]
		}
		return false
	}
	return rec(order)
}

// CountCliques returns the number of k-cliques (unordered) in the graph:
// the p-#Clique problem.
func (g *Graph) CountCliques(k int) *big.Int {
	total := new(big.Int)
	if k < 0 {
		return total
	}
	if k == 0 {
		return total.SetInt64(1)
	}
	if k == 1 {
		return total.SetInt64(int64(g.n))
	}
	order := g.degeneracyOrder()
	var rec func(cands []int, depth int)
	rec = func(cands []int, depth int) {
		if depth == k {
			total.Add(total, big.NewInt(1))
			return
		}
		for i, v := range cands {
			if depth+(len(cands)-i) < k {
				return
			}
			var next []int
			for _, u := range cands[i+1:] {
				if g.adj[v][u] {
					next = append(next, u)
				}
			}
			rec(next, depth+1)
		}
	}
	// Seed with each vertex in order; cands restricted to later neighbors.
	pos := make([]int, g.n)
	for i, v := range order {
		pos[v] = i
	}
	for i, v := range order {
		var cands []int
		for _, u := range order[i+1:] {
			if g.adj[v][u] {
				cands = append(cands, u)
			}
		}
		rec(cands, 1)
		_ = i
	}
	return total
}

// degeneracyOrder returns a vertex order by repeatedly removing a
// minimum-degree vertex; it bounds the candidate sets during clique search.
func (g *Graph) degeneracyOrder() []int {
	deg := make([]int, g.n)
	removed := make([]bool, g.n)
	for v := 0; v < g.n; v++ {
		deg[v] = len(g.adj[v])
	}
	order := make([]int, 0, g.n)
	for len(order) < g.n {
		best, bestDeg := -1, g.n+1
		for v := 0; v < g.n; v++ {
			if !removed[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		removed[best] = true
		order = append(order, best)
		for u := range g.adj[best] {
			if !removed[u] {
				deg[u]--
			}
		}
	}
	return order
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
