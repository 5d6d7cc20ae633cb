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
	// renum[i] is -1 once bag i is contracted away, and its new index at
	// the end; decompositions of query graphs fit small, on the stack.
	var small [32]int
	renum := small[:]
	if n > len(small) {
		renum = make([]int, n)
	}
	renum = renum[:n]
	reparent := func(from, to int) {
		for c := 0; c < n; c++ {
			if renum[c] >= 0 && c != to && d.Parent[c] == from {
				d.Parent[c] = to
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			p := d.Parent[i]
			if renum[i] < 0 || p < 0 {
				continue
			}
			switch {
			case subset(d.Bags[i], d.Bags[p]):
				reparent(i, p)
				renum[i] = -1
				changed = true
			case subset(d.Bags[p], d.Bags[i]):
				d.Parent[i] = d.Parent[p]
				reparent(p, i)
				renum[p] = -1
				changed = true
			}
		}
	}
	k := 0
	for i := 0; i < n; i++ {
		if renum[i] >= 0 {
			renum[i] = k
			k++
		}
	}
	// Compact in place: bag i moves to renum[i] ≤ i.
	for i := 0; i < n; i++ {
		if renum[i] < 0 {
			continue
		}
		d.Bags[renum[i]] = d.Bags[i]
		if p := d.Parent[i]; p < 0 {
			d.Parent[renum[i]] = -1
		} else {
			d.Parent[renum[i]] = renum[p]
		}
	}
	d.Bags, d.Parent = d.Bags[:k:k], d.Parent[:k:k]
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

// scratch is one decomposition's working memory: the fill graph's rows,
// w words each, with four word vectors behind them, and the ints behind
// the elimination order, the positions, the bag ends, the degrees and
// the bags themselves as they are built.  The decomposition a Treewidth
// call returns takes three allocations, and on query graphs nothing
// else does.
type scratch struct {
	n, w  int
	words []uint64
	ints  []int
}

// newScratch sizes a scratch for g, in words and ints when they are long
// enough, and loads g's rows as the fill graph.  A bag holds its vertex
// and the vertex's later neighbours, so the bags of n vertices hold at
// most n(n+1)/2 cells.
func newScratch(g *graph.Graph, words []uint64, ints []int) scratch {
	n := g.N()
	w := (n + 63) / 64
	if need := (n + 4) * w; len(words) < need {
		words = make([]uint64, need)
	}
	if need := 4*n + n*(n+1)/2; len(ints) < need {
		ints = make([]int, need)
	}
	s := scratch{n: n, w: w, words: words[:(n+4)*w], ints: ints[:4*n+n*(n+1)/2]}
	s.load(g)
	return s
}

// load copies g's rows into the fill graph.
func (s *scratch) load(g *graph.Graph) {
	for v := 0; v < s.n; v++ {
		copy(s.row(v), g.Row(v))
	}
}

// row is vertex v's row of the fill graph.
func (s *scratch) row(v int) []uint64 { return s.words[v*s.w : (v+1)*s.w : (v+1)*s.w] }

// vec is the k-th word vector behind the rows (k < 4).
func (s *scratch) vec(k int) []uint64 {
	lo := (s.n + k) * s.w
	return s.words[lo : lo+s.w : lo+s.w]
}

// The ints: order, positions, bag ends, degrees, then the bags' cells.
func (s *scratch) order() []int { return s.ints[:s.n:s.n] }
func (s *scratch) pos() []int   { return s.ints[s.n : 2*s.n : 2*s.n] }
func (s *scratch) ends() []int  { return s.ints[2*s.n : 3*s.n : 3*s.n] }
func (s *scratch) deg() []int   { return s.ints[3*s.n : 4*s.n : 4*s.n] }
func (s *scratch) cells() []int { return s.ints[4*s.n : 4*s.n] }

// fillAll sets every vertex's bit in set.
func (s *scratch) fillAll(set []uint64) {
	clear(set)
	for v := 0; v < s.n; v++ {
		set[v>>6] |= 1 << (uint(v) & 63)
	}
}

// clique makes the vertices of set pairwise adjacent in the fill graph,
// writing through its rows.
func (s *scratch) clique(set []uint64) {
	for u := range bitvec.Each(set) {
		row := s.row(u)
		bitvec.Or(row, set)
		row[u>>6] &^= 1 << (uint(u) & 63)
	}
}

// FromEliminationOrder builds a tree decomposition from an elimination
// order using the standard fill-in construction.  Bag i contains order[i]
// plus its higher-ordered neighbors in the fill graph; bag i's parent is
// the bag of the lowest-ordered vertex among those neighbors.
func FromEliminationOrder(g *graph.Graph, order []int) *Decomposition {
	s := newScratch(g, nil, nil)
	return s.decompose(order)
}

// decompose is FromEliminationOrder on the fill graph, which it edits.
// The bags are built in the scratch, then copied out next to the parent
// pointers: the decomposition is one slice of ints, one of bag headers
// and the struct.
func (s *scratch) decompose(order []int) *Decomposition {
	n := s.n
	if n == 0 {
		return &Decomposition{Bags: [][]int{{}}, Parent: []int{-1}}
	}
	pos, ends, flat := s.pos(), s.ends(), s.cells()
	for i, v := range order {
		pos[v] = i // also the index of v's bag
	}
	later, left := s.vec(0), s.vec(1) // left: vertices not yet eliminated
	clear(left)
	for _, v := range order {
		left[v>>6] |= 1 << (uint(v) & 63)
	}
	for i, v := range order {
		left[v>>6] &^= 1 << (uint(v) & 63)
		for j, m := range s.row(v) {
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
		// Connect later neighbors into a clique.
		s.clique(later)
	}
	out := make([]int, n+len(flat))
	parent, cells := out[:n:n], out[n:]
	copy(cells, flat)
	bags := make([][]int, n)
	lo := 0
	for i, hi := range ends {
		bags[i], lo = cells[lo:hi:hi], hi
	}
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
			parent[i] = pos[best]
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
// fill-in (ties broken by minimum degree, then index), in the scratch's
// order ints.  It edits the fill graph.
func (s *scratch) minFillOrder() []int {
	alive, nbrs := s.vec(2), s.vec(3)
	s.fillAll(alive)
	liveNbrs := func(v int) {
		for j, m := range s.row(v) {
			nbrs[j] = m & alive[j]
		}
	}
	order := s.order()[:0]
	for len(order) < s.n {
		best, bestFill, bestDeg := -1, 1<<30, 1<<30
		for v := range bitvec.Each(alive) {
			liveNbrs(v)
			deg := bitvec.Count(nbrs)
			// Each missing edge {a,b} among the neighbours is seen from a
			// and from b; a itself is in nbrs and not in its own row.
			missing := 0
			for a := range bitvec.Each(nbrs) {
				missing += bitvec.CountAndNot(nbrs, s.row(a)) - 1
			}
			if fill := missing / 2; fill < bestFill || (fill == bestFill && deg < bestDeg) {
				best, bestFill, bestDeg = v, fill, deg
			}
		}
		order = append(order, best)
		alive[best>>6] &^= 1 << (uint(best) & 63)
		liveNbrs(best)
		s.clique(nbrs)
	}
	return order
}

// HeuristicDecomposition returns a min-fill tree decomposition.
//
// Eliminating in min-fill order leaves each vertex's row holding exactly
// its later neighbours, so the decomposition is read off the fill graph
// minFillOrder built, on one copy of g's rows.
func HeuristicDecomposition(g *graph.Graph) *Decomposition {
	s := newScratch(g, nil, nil)
	return s.decompose(s.minFillOrder())
}

// LowerBoundMMD returns the maximum-minimum-degree treewidth lower bound.
func LowerBoundMMD(g *graph.Graph) int {
	s := newScratch(g, nil, nil)
	return s.lowerBoundMMD(g)
}

// lowerBoundMMD is LowerBoundMMD on g's own rows (not the fill graph's,
// which elimination may have edited), with the degrees and the live
// vertices in the scratch.
func (s *scratch) lowerBoundMMD(g *graph.Graph) int {
	deg, alive := s.deg(), s.vec(2)
	s.fillAll(alive)
	for v := range deg {
		deg[v] = bitvec.Count(g.Row(v))
	}
	lb := 0
	for remaining := s.n; remaining > 0; remaining-- {
		best, bestDeg := -1, 1<<30
		for v := range bitvec.Each(alive) {
			if deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		lb = max(lb, bestDeg)
		alive[best>>6] &^= 1 << (uint(best) & 63)
		for j, m := range g.Row(best) {
			for m &= alive[j]; m != 0; m &= m - 1 {
				deg[j<<6|bits.TrailingZeros64(m)]--
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
// min-fill upper bound beyond that (exact flag reports which).  Graphs
// of one or two vertices skip the search: their min-fill decomposition
// is exact, and tiny gives it directly.
func Treewidth(g *graph.Graph) (width int, dec *Decomposition, exact bool) {
	switch g.N() {
	case 0:
		return -1, &Decomposition{Bags: [][]int{{}}, Parent: []int{-1}}, true
	case 1, 2:
		dec := tiny(g)
		return dec.Width(), dec, true
	}
	// Query graphs fit the scratch on the stack: 28 vertices' rows, 18
	// vertices' ints.
	var (
		words [32]uint64
		ints  [256]int
	)
	s := newScratch(g, words[:], ints[:])
	heur := s.decompose(s.minFillOrder())
	ub := heur.Width()
	if g.N() > exactLimit {
		return ub, heur, false
	}
	lb := s.lowerBoundMMD(g)
	if lb >= ub {
		return ub, heur, true
	}
	// Iterative tightening: test each candidate width k from lb upward.
	for k := lb; k < ub; k++ {
		if order, ok := elimOrderWithWidth(g, k); ok {
			s.load(g)
			return k, s.decompose(order), true
		}
	}
	return ub, heur, true
}

// tinyDecomposition holds a decomposition of at most two bags and its
// storage in one allocation.
type tinyDecomposition struct {
	d     Decomposition
	bags  [2][]int
	cells [5]int
}

// tiny returns the decomposition min-fill builds for a graph of one or
// two vertices: vertex 0 is eliminated first (no fill, then the lower
// degree or index), so with the edge the bags are {0,1} under {1}, and
// without it {0} over {1}.
func tiny(g *graph.Graph) *Decomposition {
	t := new(tinyDecomposition)
	c := t.cells[:]
	switch {
	case g.N() == 1:
		c[0], c[1] = -1, 0
		t.bags[0] = c[1:2:2]
	case g.HasEdge(0, 1):
		c[0], c[1], c[2], c[3], c[4] = 1, -1, 0, 1, 1
		t.bags[0], t.bags[1] = c[2:4:4], c[4:5:5]
	default:
		c[0], c[1], c[2], c[3] = -1, 0, 0, 1
		t.bags[0], t.bags[1] = c[2:3:3], c[3:4:4]
	}
	t.d.Bags, t.d.Parent = t.bags[:g.N()], c[:g.N():g.N()]
	return &t.d
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
