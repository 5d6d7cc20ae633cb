package pp

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
)

// CanonicalKey returns a canonical certificate of the formula up to
// (a) renaming of liberal variables among themselves and (b) renaming of
// quantified variables — i.e. up to the color-preserving isomorphism that,
// for cored formulas, coincides exactly with counting equivalence:
// by Theorems 5.4 and 2.3, two cored pp-formulas are counting equivalent
// iff there is an isomorphism between their structures mapping liberal
// variables onto liberal variables.
//
// The algorithm is individualization–refinement: iterated color
// refinement over tuple incidences, branching on the first non-singleton
// cell, taking the lexicographically smallest serialization.  Colors,
// signatures and candidate certificates are integer tuples in pooled
// scratch; only the winning certificate is rendered as a string.
// Query-sized structures (the only callers) finish in microseconds; a
// permutation budget guards against pathological inputs, returning an
// error the caller can handle by falling back to pairwise equivalence
// tests.
func (p PP) CanonicalKey() (string, error) {
	if p.A.Size() == 0 {
		return "", fmt.Errorf("pp: empty universe")
	}
	c := canonPool.Get().(*canonizer)
	defer canonPool.Put(c)
	c.load(p)
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

	arena []int32
}

// load lays the formula out in the canonizer's arena.
func (c *canonizer) load(p PP) {
	sig := p.A.Signature()
	n, nRels, nTuples, nArgs := p.A.Size(), sig.NumRels(), 0, 0
	c.maxAr = 1
	for ri := 0; ri < nRels; ri++ {
		r := sig.Rel(ri)
		nTuples += p.A.Rel(r.Name).Len()
		nArgs += p.A.Rel(r.Name).Len() * r.Arity
		c.maxAr = max(c.maxAr, int32(r.Arity))
	}
	need := (nRels + 1) + (nTuples + 1) + 5*nArgs + (n + 1) + 3*nTuples + 2*n
	if cap(c.arena) < need {
		c.arena = make([]int32, need)
	}
	arena := c.arena[:need]
	take := func(k int) []int32 {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	c.n, c.steps, c.hasBest = n, 0, false
	c.relStart, c.relOf, c.argOff, c.args = take(nRels+1), take(nTuples), take(nTuples+1), take(nArgs)
	c.occOff, c.occ, c.vsig = take(n+1), take(nArgs), take(nArgs)
	c.tcol, c.torder = take(nTuples), take(nTuples)
	c.vorder, c.next = take(n), take(n)
	c.cert, c.best = take(nArgs), take(nArgs)

	clear(c.occOff)
	t, a := int32(0), int32(0)
	for ri := 0; ri < nRels; ri++ {
		c.relStart[ri] = t
		rel := p.A.Rel(sig.Rel(ri).Name)
		for row, rows := 0, rel.Len(); row < rows; row++ {
			c.relOf[t], c.argOff[t] = int32(ri), a
			for pos := 0; pos < rel.Arity(); pos++ {
				v := int32(rel.Value(row, pos))
				c.args[a] = v
				c.occOff[v+1]++
				a++
			}
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
func (c *canonizer) level(d int) []int32 {
	for len(c.levels) <= d {
		c.levels = append(c.levels, nil)
	}
	if cap(c.levels[d]) < c.n {
		c.levels[d] = make([]int32, c.n)
	}
	return c.levels[d][:c.n]
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
func (c *canonizer) explore(color []int32, k, depth int) error {
	const budget = 1 << 16
	if c.steps++; c.steps > budget {
		return fmt.Errorf("pp: canonical labeling budget exceeded")
	}
	k = c.refine(color, k)
	if k == c.n {
		c.certify(color)
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
	child := c.level(depth + 1)
	for v := range color {
		if color[v] != cell {
			continue
		}
		// Individualize v: give it a fresh color below its cell.
		for u, col := range color {
			child[u] = 2 * col
		}
		child[v]--
		if err := c.explore(child, k+1, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// certify serializes the structure relabelled by the discrete coloring
// label — per relation its tuples in lexicographic order — and keeps it
// if it is the smallest seen so far.
func (c *canonizer) certify(label []int32) {
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
	if !c.hasBest || slices.Compare(cert, c.best) < 0 {
		c.cert, c.best, c.hasBest = c.best, cert, true
	}
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
