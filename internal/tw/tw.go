package tw

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/graph"
)

// Decomposition is a tree decomposition: bags of vertices connected by
// tree edges (parent[i] is the parent bag of bag i; parent[root] = -1).
type Decomposition struct {
	Bags   [][]int
	Parent []int
}

// Width returns the width of the decomposition (max bag size - 1).
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// Reroot makes bag r the root by reversing the parent pointers on the
// path from r to the old root.  Bags and tree edges are unchanged, so a
// valid decomposition stays valid.
func (d *Decomposition) Reroot(r int) {
	prev := -1
	for i := r; i != -1; {
		next := d.Parent[i]
		d.Parent[i] = prev
		prev, i = i, next
	}
}

// RerootAt makes the first bag that holds every vertex of set the root
// (Reroot), if there is one.  A clique of the decomposed graph is in some
// bag.
func (d *Decomposition) RerootAt(set []int) {
	for b, bag := range d.Bags {
		if subset(set, bag) {
			d.Reroot(b)
			return
		}
	}
}

// Reduce contracts every tree edge one of whose bags contains the other,
// keeping the larger bag, until none is left, and renumbers the bags that
// remain (order kept).  Contracting such an edge keeps the decomposition
// valid and its width.  The root stays the root unless a child's bag
// contains it; that child is then the root.  Decompositions built from
// elimination orders have one bag per vertex and are full of such edges.
func (d *Decomposition) Reduce() {
	n := len(d.Bags)
	dead := make([]bool, n)
	reparent := func(from, to int) {
		for c := 0; c < n; c++ {
			if !dead[c] && c != to && d.Parent[c] == from {
				d.Parent[c] = to
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			p := d.Parent[i]
			if dead[i] || p < 0 {
				continue
			}
			switch {
			case subset(d.Bags[i], d.Bags[p]):
				reparent(i, p)
				dead[i] = true
				changed = true
			case subset(d.Bags[p], d.Bags[i]):
				d.Parent[i] = d.Parent[p]
				reparent(p, i)
				dead[p] = true
				changed = true
			}
		}
	}
	renum := make([]int, n)
	k := 0
	for i := 0; i < n; i++ {
		if !dead[i] {
			renum[i] = k
			k++
		}
	}
	bags, parent := make([][]int, 0, k), make([]int, 0, k)
	for i := 0; i < n; i++ {
		if dead[i] {
			continue
		}
		bags = append(bags, d.Bags[i])
		if p := d.Parent[i]; p < 0 {
			parent = append(parent, -1)
		} else {
			parent = append(parent, renum[p])
		}
	}
	d.Bags, d.Parent = bags, parent
}

// subset reports whether every vertex of a is in b.
func subset(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	for _, v := range a {
		found := false
		for _, u := range b {
			if u == v {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Validate checks the three tree-decomposition conditions against g:
// every vertex is in some bag, every edge is inside some bag, and for each
// vertex the bags containing it form a connected subtree.
func (d *Decomposition) Validate(g *graph.Graph) error {
	if len(d.Bags) == 0 {
		return fmt.Errorf("tw: empty decomposition")
	}
	if len(d.Parent) != len(d.Bags) {
		return fmt.Errorf("tw: parent/bags length mismatch")
	}
	roots := 0
	for i, p := range d.Parent {
		if p == -1 {
			roots++
		} else if p < 0 || p >= len(d.Bags) || p == i {
			return fmt.Errorf("tw: bad parent %d for bag %d", p, i)
		}
	}
	if roots != 1 {
		return fmt.Errorf("tw: expected exactly one root, found %d", roots)
	}
	inBag := make([]map[int]bool, len(d.Bags))
	covered := make([]bool, g.N())
	for i, b := range d.Bags {
		inBag[i] = make(map[int]bool, len(b))
		for _, v := range b {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("tw: bag %d contains out-of-range vertex %d", i, v)
			}
			inBag[i][v] = true
			covered[v] = true
		}
	}
	for v := 0; v < g.N(); v++ {
		if !covered[v] {
			return fmt.Errorf("tw: vertex %d in no bag", v)
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if u < v {
				continue
			}
			ok := false
			for i := range d.Bags {
				if inBag[i][v] && inBag[i][u] {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("tw: edge {%d,%d} in no bag", v, u)
			}
		}
	}
	// Connectivity: for each vertex, bags containing it must form a subtree.
	children := make([][]int, len(d.Bags))
	root := -1
	for i, p := range d.Parent {
		if p == -1 {
			root = i
		} else {
			children[p] = append(children[p], i)
		}
	}
	for v := 0; v < g.N(); v++ {
		// Count connected groups of bags containing v via one tree walk.
		groups := 0
		var walk func(i int, inGroup bool)
		walk = func(i int, inGroup bool) {
			has := inBag[i][v]
			if has && !inGroup {
				groups++
			}
			for _, c := range children[i] {
				walk(c, has)
			}
		}
		walk(root, false)
		if groups > 1 {
			return fmt.Errorf("tw: bags containing vertex %d are disconnected", v)
		}
	}
	return nil
}

// clique makes the vertices of set pairwise adjacent in the fill graph
// adj, writing through its rows.
func clique(adj *graph.Graph, set []uint64) {
	for u := range bitvec.Each(set) {
		row := adj.Row(u)
		bitvec.Or(row, set)
		row[u>>6] &^= 1 << (uint(u) & 63)
	}
}

// FromEliminationOrder builds a tree decomposition from an elimination
// order using the standard fill-in construction.  Bag i contains order[i]
// plus its higher-ordered neighbors in the fill graph; bag i's parent is
// the bag of the lowest-ordered vertex among those neighbors.
func FromEliminationOrder(g *graph.Graph, order []int) *Decomposition {
	return fromEliminationOrder(g.Clone(), order)
}

// fromEliminationOrder is FromEliminationOrder on a fill graph it edits.
func fromEliminationOrder(adj *graph.Graph, order []int) *Decomposition {
	n := adj.N()
	if n == 0 {
		return &Decomposition{Bags: [][]int{{}}, Parent: []int{-1}}
	}
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	bags := make([][]int, n)
	ends := make([]int, n) // the bags share flat: bag i ends at ends[i]
	var flat []int
	bagOf := make([]int, n) // vertex -> index of its bag
	w := len(adj.Row(0))
	later := make([]uint64, w)
	left := make([]uint64, w) // vertices not yet eliminated
	for _, v := range order {
		left[v>>6] |= 1 << (uint(v) & 63)
	}
	for i, v := range order {
		left[v>>6] &^= 1 << (uint(v) & 63)
		for j, m := range adj.Row(v) {
			later[j] = m & left[j]
		}
		placed := false
		for u := range bitvec.Each(later) {
			if !placed && u > v {
				flat, placed = append(flat, v), true
			}
			flat = append(flat, u)
		}
		if !placed {
			flat = append(flat, v)
		}
		ends[i] = len(flat)
		bagOf[v] = i
		// Connect later neighbors into a clique.
		clique(adj, later)
	}
	lo := 0
	for i, hi := range ends {
		bags[i], lo = flat[lo:hi:hi], hi
	}
	parent := make([]int, n)
	for i, v := range order {
		parent[i] = -1
		// Parent is the bag of the earliest-eliminated later neighbor.
		best := -1
		for _, u := range bags[i] {
			if u == v {
				continue
			}
			if best == -1 || pos[u] < pos[best] {
				best = u
			}
		}
		if best != -1 {
			parent[i] = bagOf[best]
		}
	}
	// Multiple roots arise for disconnected graphs; link extra roots to the
	// first root through an empty-intersection edge (still a valid tree
	// decomposition since shared vertices are none).
	firstRoot := -1
	for i := range parent {
		if parent[i] == -1 {
			if firstRoot == -1 {
				firstRoot = i
			} else {
				parent[i] = firstRoot
			}
		}
	}
	return &Decomposition{Bags: bags, Parent: parent}
}

// minFillOrder returns an elimination order chosen greedily by minimum
// fill-in (ties broken by minimum degree, then index).  It edits adj.
func minFillOrder(adj *graph.Graph) []int {
	n := adj.N()
	alive := adj.All()
	nbrs := make([]uint64, len(alive))
	liveNbrs := func(v int) {
		for j, m := range adj.Row(v) {
			nbrs[j] = m & alive[j]
		}
	}
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestFill, bestDeg := -1, 1<<30, 1<<30
		for v := range bitvec.Each(alive) {
			liveNbrs(v)
			deg := bitvec.Count(nbrs)
			// Each missing edge {a,b} among the neighbours is seen from a
			// and from b; a itself is in nbrs and not in its own row.
			missing := 0
			for a := range bitvec.Each(nbrs) {
				missing += bitvec.CountAndNot(nbrs, adj.Row(a)) - 1
			}
			if fill := missing / 2; fill < bestFill || (fill == bestFill && deg < bestDeg) {
				best, bestFill, bestDeg = v, fill, deg
			}
		}
		order = append(order, best)
		alive[best>>6] &^= 1 << (uint(best) & 63)
		liveNbrs(best)
		clique(adj, nbrs)
	}
	return order
}

// HeuristicDecomposition returns a min-fill tree decomposition.
//
// Eliminating in min-fill order leaves each vertex's row holding exactly
// its later neighbours, so the decomposition is read off the fill graph
// minFillOrder built, on one copy of g's rows.
func HeuristicDecomposition(g *graph.Graph) *Decomposition {
	adj := g.Clone()
	return fromEliminationOrder(adj, minFillOrder(adj))
}

// LowerBoundMMD returns the maximum-minimum-degree treewidth lower bound.
func LowerBoundMMD(g *graph.Graph) int {
	n := g.N()
	deg := make([]int, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = bitvec.Count(g.Row(v))
	}
	lb, remaining := 0, n
	for remaining > 0 {
		best, bestDeg := -1, 1<<30
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		if bestDeg > lb {
			lb = bestDeg
		}
		alive[best] = false
		remaining--
		for u := range bitvec.Each(g.Row(best)) {
			if alive[u] {
				deg[u]--
			}
		}
	}
	return lb
}

// exactLimit caps the exact search; beyond it Treewidth falls back to the
// min-fill heuristic (query graphs never get close).
const exactLimit = 24

// Treewidth returns the treewidth of g together with a witnessing
// decomposition.  Exact for graphs with at most exactLimit vertices,
// min-fill upper bound beyond that (exact flag reports which).
func Treewidth(g *graph.Graph) (width int, dec *Decomposition, exact bool) {
	if g.N() == 0 {
		return -1, &Decomposition{Bags: [][]int{{}}, Parent: []int{-1}}, true
	}
	heur := HeuristicDecomposition(g)
	ub := heur.Width()
	if g.N() > exactLimit {
		return ub, heur, false
	}
	lb := LowerBoundMMD(g)
	if lb >= ub {
		return ub, heur, true
	}
	// Iterative tightening: test each candidate width k from lb upward.
	for k := lb; k < ub; k++ {
		if order, ok := elimOrderWithWidth(g, k); ok {
			return k, FromEliminationOrder(g, order), true
		}
	}
	return ub, heur, true
}

// elimOrderWithWidth searches for an elimination order of width ≤ k using
// depth-first search over vertex subsets with memoization (the QuickBB
// core).  Vertex sets are bitmasks, so this handles n ≤ exactLimit.
func elimOrderWithWidth(g *graph.Graph, k int) ([]int, bool) {
	n := g.N()
	type state = uint32
	full := state(1)<<n - 1
	baseAdj := make([]state, n)
	for v := 0; v < n; v++ {
		baseAdj[v] = state(g.Row(v)[0]) // n ≤ exactLimit: one word
	}
	// In the eliminated-set model, the current degree of v given eliminated
	// set S is |reach(v, S)|: neighbors of v reachable through eliminated
	// vertices. This equals the fill-graph degree.
	reach := func(v int, elim state) state {
		seen := state(1 << v)
		frontier := baseAdj[v]
		var res state
		for frontier != 0 {
			u := bits.TrailingZeros32(uint32(frontier))
			frontier &^= 1 << u
			if seen&(1<<u) != 0 {
				continue
			}
			seen |= 1 << u
			if elim&(1<<u) != 0 {
				frontier |= baseAdj[u] &^ seen
			} else {
				res |= 1 << u
			}
		}
		return res
	}
	memoFail := make(map[state]bool)
	var rec func(elim state, order []int) ([]int, bool)
	rec = func(elim state, order []int) ([]int, bool) {
		if elim == full {
			return order, true
		}
		if memoFail[elim] {
			return nil, false
		}
		for v := 0; v < n; v++ {
			if elim&(1<<v) != 0 {
				continue
			}
			r := reach(v, elim)
			if bits.OnesCount32(uint32(r)) <= k {
				if res, ok := rec(elim|1<<v, append(order, v)); ok {
					return res, true
				}
			}
		}
		memoFail[elim] = true
		return nil, false
	}
	return rec(0, make([]int, 0, n))
}
