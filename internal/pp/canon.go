package pp

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
)

// ErrLabelingBudget reports that canonical labeling gave up after
// exploring its step budget of search nodes.  The formula then has no
// canonical key, so it cannot be interned and callers refuse it.
var ErrLabelingBudget = errors.New("pp: canonical labeling budget exceeded")

// labelingBudget caps the search nodes one labeling explores.  Only
// tests lower it.
var labelingBudget = 1 << 16

// CanonicalKey returns a canonical certificate of the formula up to
// (a) renaming of liberal variables among themselves and (b) renaming of
// quantified variables — i.e. up to the color-preserving isomorphism that,
// for cored formulas, coincides exactly with counting equivalence:
// by Theorems 5.4 and 2.3, two cored pp-formulas are counting equivalent
// iff there is an isomorphism between their structures mapping liberal
// variables onto liberal variables.
//
// The algorithm is individualization–refinement in the manner of nauty
// and Traces (McKay & Piperno, "Practical graph isomorphism, II", 2014):
// iterated color refinement over tuple incidences, branching on the
// first non-singleton cell, taking the lexicographically smallest
// serialization.  Two leaves with equal certificates give an
// automorphism, and the automorphisms found prune the search tree
// (explore), so formulas with many interchangeable variables — a star's
// leaves, the sides of K_{m,m} — label in polynomially many steps.
// Colors, signatures, certificates and automorphisms are integer tuples
// in pooled scratch; only the winning certificate is rendered as a
// string.  A labeling that exceeds the step budget returns an error
// wrapping ErrLabelingBudget.
func (p PP) CanonicalKey() (string, error) {
	if p.A.Size() == 0 {
		return "", fmt.Errorf("pp: empty universe")
	}
	c := canonPool.Get().(*canonizer)
	defer canonPool.Put(c)
	return c.key(p, labelingBudget)
}

var canonPool = sync.Pool{New: func() any { return new(canonizer) }}

// canonizer is the scratch of one CanonicalKey call.  Tuples are numbered
// relation by relation (signature order), so a relation's tuples are the
// contiguous range relStart[ri]..relStart[ri+1].
type canonizer struct {
	n        int
	maxAr    int32
	relStart []int32 // per relation: first tuple (len = #rels + 1)
	relOf    []int32 // per tuple: relation index
	argOff   []int32 // per tuple: offset into args (len = #tuples + 1)
	args     []int32 // element per tuple position, flattened
	occOff   []int32 // per element: offset into occ (len = n + 1)
	occ      []int32 // per element: its occurrences as tuple*maxAr + pos

	tcol, torder []int32 // per tuple: color; sort permutation
	vsig         []int32 // per occurrence: tcol*maxAr + pos, sorted per element
	vorder, next []int32 // per element: sort permutation; new colors
	cert, best   []int32 // candidate and smallest certificate
	hasBest      bool
	levels       [][]int32 // one color array per search depth
	steps        int
	budget       int

	// Automorphism pruning.  path is the element individualized at each
	// depth of the current node; bestPath and bestLabel are the path and
	// the discrete coloring of the leaf holding best; inv inverts a leaf
	// coloring.  gens holds every automorphism found, n entries each
	// (gens[g*n+v] is the image of v).  orbits[d] is a union-find over
	// the elements whose classes are the orbits, under the automorphisms
	// found so far that fix path[:d], of the node at depth d; a class's
	// root is its smallest element.  backTo, when below the current
	// depth, unwinds the search to that ancestor.
	path, bestPath []int32
	bestLabel, inv []int32
	gens           []int32
	orbits         [][]int32
	backTo         int

	arena []int32
}

// key labels p (a non-empty universe) within budget search nodes.
func (c *canonizer) key(p PP, budget int) (string, error) {
	c.load(p)
	c.budget = budget
	color := c.level(0)
	k := 1
	for v := range color {
		color[v] = 1
	}
	for _, v := range p.S {
		color[v] = 0
	}
	if len(p.S) > 0 && len(p.S) < c.n {
		k = 2
	}
	if err := c.explore(color, k, 0); err != nil {
		return "", err
	}
	return c.render(p), nil
}

// load lays the formula out in the canonizer's arena.
func (c *canonizer) load(p PP) {
	sig := p.A.Signature()
	n, nRels, nTuples, nArgs := p.A.Size(), sig.NumRels(), 0, 0
	c.maxAr = 1
	for ri := 0; ri < nRels; ri++ {
		r := sig.Rel(ri)
		nTuples += len(p.A.Args(ri)) / r.Arity
		nArgs += len(p.A.Args(ri))
		c.maxAr = max(c.maxAr, int32(r.Arity))
	}
	need := (nRels + 1) + (nTuples + 1) + 5*nArgs + (n + 1) + 3*nTuples + 4*n
	if cap(c.arena) < need {
		c.arena = make([]int32, need)
	}
	arena := c.arena[:need]
	take := func(k int) []int32 {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	c.n, c.steps, c.hasBest, c.backTo = n, 0, false, n
	c.path, c.bestPath, c.gens = c.path[:0], c.bestPath[:0], c.gens[:0]
	c.relStart, c.relOf, c.argOff, c.args = take(nRels+1), take(nTuples), take(nTuples+1), take(nArgs)
	c.occOff, c.occ, c.vsig = take(n+1), take(nArgs), take(nArgs)
	c.tcol, c.torder = take(nTuples), take(nTuples)
	c.vorder, c.next = take(n), take(n)
	c.cert, c.best = take(nArgs), take(nArgs)
	c.bestLabel, c.inv = take(n), take(n)

	clear(c.occOff)
	t, a := int32(0), int32(0)
	for ri := 0; ri < nRels; ri++ {
		c.relStart[ri] = t
		args := p.A.Args(ri)
		copy(c.args[a:], args)
		for _, v := range args {
			c.occOff[v+1]++
		}
		for end, ar := a+int32(len(args)), int32(sig.Rel(ri).Arity); a < end; a += ar {
			c.relOf[t], c.argOff[t] = int32(ri), a
			t++
		}
	}
	c.relStart[nRels], c.argOff[t] = t, a
	for v := 0; v < n; v++ {
		c.occOff[v+1] += c.occOff[v]
	}
	// Fill occ using vorder as the per-element write cursor.
	copy(c.vorder, c.occOff[:n])
	for t := int32(0); t < int32(nTuples); t++ {
		for i := c.argOff[t]; i < c.argOff[t+1]; i++ {
			v := c.args[i]
			c.occ[c.vorder[v]] = t*c.maxAr + (i - c.argOff[t])
			c.vorder[v]++
		}
	}
}

// level returns the color array of search depth d.
func (c *canonizer) level(d int) []int32 { return c.row(&c.levels, d) }

// row returns (*rows)[d] sized n, growing rows and the row as needed.
func (c *canonizer) row(rows *[][]int32, d int) []int32 {
	for len(*rows) <= d {
		*rows = append(*rows, nil)
	}
	if cap((*rows)[d]) < c.n {
		(*rows)[d] = make([]int32, c.n)
	}
	return (*rows)[d][:c.n]
}

func (c *canonizer) tupleArgs(t int32) []int32 { return c.args[c.argOff[t]:c.argOff[t+1]] }

// refine replaces color (k distinct values) by the coarsest stable
// refinement, renumbered densely in an isomorphism-invariant order, and
// returns its number of colors.  One round colors every tuple by
// (relation, colors of its elements), then every element by (own color,
// multiset of (tuple color, position) over its occurrences).
func (c *canonizer) refine(color []int32, k int) int {
	cmpTuple := func(a, b int32) int {
		if d := c.relOf[a] - c.relOf[b]; d != 0 {
			return int(d)
		}
		ta, tb := c.tupleArgs(a), c.tupleArgs(b)
		for i := range ta {
			if d := color[ta[i]] - color[tb[i]]; d != 0 {
				return int(d)
			}
		}
		return 0
	}
	cmpElem := func(a, b int32) int {
		if d := color[a] - color[b]; d != 0 {
			return int(d)
		}
		return slices.Compare(c.vsig[c.occOff[a]:c.occOff[a+1]], c.vsig[c.occOff[b]:c.occOff[b+1]])
	}
	for {
		for t := range c.torder {
			c.torder[t] = int32(t)
		}
		slices.SortFunc(c.torder, cmpTuple)
		for i, t := range c.torder {
			if i == 0 {
				c.tcol[t] = 0
			} else if prev := c.torder[i-1]; cmpTuple(prev, t) == 0 {
				c.tcol[t] = c.tcol[prev]
			} else {
				c.tcol[t] = c.tcol[prev] + 1
			}
		}
		for v := 0; v < c.n; v++ {
			lo, hi := c.occOff[v], c.occOff[v+1]
			for i := lo; i < hi; i++ {
				o := c.occ[i]
				c.vsig[i] = c.tcol[o/c.maxAr]*c.maxAr + o%c.maxAr
			}
			slices.Sort(c.vsig[lo:hi])
			c.vorder[v] = int32(v)
		}
		slices.SortFunc(c.vorder, cmpElem)
		newK := 0
		for i, v := range c.vorder {
			if i > 0 && cmpElem(c.vorder[i-1], v) != 0 {
				newK++
			}
			c.next[v] = int32(newK)
		}
		newK++
		copy(color, c.next)
		if newK == k {
			return k
		}
		k = newK
	}
}

// explore refines color and either records the certificate of a discrete
// coloring or branches on the first non-singleton cell.
//
// Automorphisms prune the branching, and neither rule changes the
// smallest certificate.  An automorphism fixing the path to a node maps
// the subtree below one child onto the subtree below another, with the
// same certificates, so of the children in one orbit only the smallest
// is explored.  A leaf whose certificate equals the best one gives such
// an automorphism, fixing the path to the two leaves' deepest common
// ancestor, and mapping the ancestor's child above the best leaf, whose
// subtree is done, onto the child above this one: the search unwinds to
// the ancestor at once.
func (c *canonizer) explore(color []int32, k, depth int) error {
	if c.steps++; c.steps > c.budget {
		return fmt.Errorf("%w after %d steps", ErrLabelingBudget, c.budget)
	}
	k = c.refine(color, k)
	if k == c.n {
		c.leaf(color, depth)
		return nil
	}
	// Colors are dense, so the first non-singleton cell is the smallest
	// color that repeats; next doubles as the per-color counter.
	count := c.next
	clear(count)
	for _, col := range color {
		count[col]++
	}
	cell := int32(0)
	for count[cell] < 2 {
		cell++
	}
	orbit := c.orbitsAt(depth)
	child := c.level(depth + 1)
	for v := range color {
		if color[v] != cell || find(orbit, int32(v)) != int32(v) {
			continue
		}
		// Individualize v: give it a fresh color below its cell.
		for u, col := range color {
			child[u] = 2 * col
		}
		child[v]--
		c.path = append(c.path[:depth], int32(v))
		if err := c.explore(child, k+1, depth+1); err != nil {
			return err
		}
		if c.backTo < depth {
			return nil
		}
		c.backTo = c.n
	}
	return nil
}

// orbitsAt returns the orbit union-find of the node at depth d, joined
// under every automorphism found so far that fixes path[:d].
func (c *canonizer) orbitsAt(d int) []int32 {
	orbit := c.row(&c.orbits, d)
	for v := range orbit {
		orbit[v] = int32(v)
	}
	for g := 0; g < len(c.gens); g += c.n {
		gen := c.gens[g : g+c.n]
		fixes := true
		for _, v := range c.path[:d] {
			fixes = fixes && gen[v] == v
		}
		if fixes {
			unite(orbit, gen)
		}
	}
	return orbit
}

// leaf handles the discrete coloring label of the leaf at depth: a
// smaller certificate becomes the best, an equal one an automorphism.
func (c *canonizer) leaf(label []int32, depth int) {
	cmp := c.certify(label)
	if !c.hasBest || cmp < 0 {
		c.cert, c.best, c.hasBest = c.best, c.cert, true
		copy(c.bestLabel, label)
		c.bestPath = append(c.bestPath[:0], c.path[:depth]...)
		return
	}
	if cmp > 0 {
		return
	}
	// Both leaves relabel the structure identically, so the element with
	// label l at the best leaf maps to the element with label l here.
	for v, l := range label {
		c.inv[l] = int32(v)
	}
	start := len(c.gens)
	for _, l := range c.bestLabel {
		c.gens = append(c.gens, c.inv[l])
	}
	anc := 0
	for c.path[anc] == c.bestPath[anc] {
		anc++
	}
	for d := 0; d <= anc; d++ {
		unite(c.orbits[d][:c.n], c.gens[start:])
	}
	c.backTo = anc
}

// unite joins every element's union-find class with its image's under
// the permutation gen, keeping the smallest element as each root.
func unite(orbit, gen []int32) {
	for v, w := range gen {
		a, b := find(orbit, int32(v)), find(orbit, w)
		if a > b {
			a, b = b, a
		}
		orbit[b] = a
	}
}

// find returns the root of v's union-find class, halving the path.
func find(orbit []int32, v int32) int32 {
	for orbit[v] != v {
		orbit[v] = orbit[orbit[v]]
		v = orbit[v]
	}
	return v
}

// certify serializes the structure relabelled by the discrete coloring
// label — per relation its tuples in lexicographic order — into cert and
// compares it with best.
func (c *canonizer) certify(label []int32) int {
	cert := c.cert[:0]
	for ri := 0; ri+1 < len(c.relStart); ri++ {
		seg := c.torder[c.relStart[ri]:c.relStart[ri+1]]
		for i := range seg {
			seg[i] = c.relStart[ri] + int32(i)
		}
		slices.SortFunc(seg, func(a, b int32) int {
			ta, tb := c.tupleArgs(a), c.tupleArgs(b)
			for i := range ta {
				if d := label[ta[i]] - label[tb[i]]; d != 0 {
					return int(d)
				}
			}
			return 0
		})
		for _, t := range seg {
			for _, v := range c.tupleArgs(t) {
				cert = append(cert, label[v])
			}
		}
	}
	c.cert = cert
	return slices.Compare(cert, c.best)
}

// render writes the smallest certificate as, e.g., "E/0,1 1,2;S=[0 1]".
func (c *canonizer) render(p PP) string {
	sig := p.A.Signature()
	buf := make([]byte, 0, 4*len(c.best)+8*sig.NumRels()+8)
	cert := c.best
	for ri := 0; ri < sig.NumRels(); ri++ {
		r := sig.Rel(ri)
		buf = append(append(buf, r.Name...), '/')
		for t := c.relStart[ri]; t < c.relStart[ri+1]; t++ {
			if t > c.relStart[ri] {
				buf = append(buf, ' ')
			}
			for i, label := range cert[:r.Arity] {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, int64(label), 10)
			}
			cert = cert[r.Arity:]
		}
		buf = append(buf, ';')
	}
	// The liberal labels: liberals start in the lower color and
	// refinement keeps the order, so they are 0..|S|-1.
	buf = append(buf, "S=["...)
	for i := range p.S {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(i), 10)
	}
	return string(append(buf, ']'))
}
