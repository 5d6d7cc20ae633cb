package hom

import (
	"fmt"
	"math/big"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/structure"
)

// Options configures a homomorphism search.
type Options struct {
	// Pin forces specific A-element → B-element mappings.
	Pin map[int]int
	// Restrict limits the domain of an A-element to the given B-elements.
	Restrict map[int][]int
}

type constraint struct {
	vars []int // A-element per position

	// The relation's B-tuples, resolved once at solver construction.  A
	// data target gives its columnar store brel and the column views
	// bcols: the row kernel's candidate generation walks posting lists
	// and reads columns directly, never materializing tuple slices or
	// scanning the full relation.  A formula target gives its few atoms,
	// row-major, in brows (brel nil), and the row kernel scans them: a
	// posting index would cost more to build than it saves.
	brel  *structure.Relation
	bcols [][]int32
	brows []int32

	// fwd/bwd are the relation's value-space support rows, words words
	// per B-element: fwd[a] = {b : R(a,b)} and bwd[b] = {a : R(a,b)} as
	// bitsets over B's universe.  They exist for a binary constraint on
	// two distinct variables whose relation is dense enough for its
	// universe (see structure.BitRowsFit) and select the bit-row revise
	// kernel; nil selects the row kernel.
	fwd, bwd []uint64
}

// Target is the codomain of a homomorphism: a data structure, whose
// posting lists and columns the row kernel reads, or a formula's body,
// whose atoms it scans.
type Target interface {
	*structure.Structure | *structure.Atoms
}

// target splits B into its data-structure and formula forms, one of
// them nil.
func target[T Target](B T) (*structure.Structure, *structure.Atoms) {
	bs, _ := any(B).(*structure.Structure)
	ba, _ := any(B).(*structure.Atoms)
	return bs, ba
}

type solver struct {
	A       *structure.Atoms
	nA, nB  int
	words   int // words per bitset over B's universe
	cons    []constraint
	consOf  [][]int // A-element -> indices into cons
	initDom []bitset
	initErr error

	// domFree is a freelist of domain-set copies (one flat backing array
	// per entry) recycled across search branches; supBuf is the
	// per-position support scratch of propagate; candBuf is the pooled
	// candidate-row word bitmap the row kernel marks its posting lists'
	// rows in; queue/inQueue are propagate's worklist and assign
	// is search's solution buffer.  A solver serves one call and is
	// single-threaded, so no locking is needed.
	domFree [][]bitset
	supBuf  []bitset
	candBuf []uint64
	queue   []int
	inQueue []bool
	assign  []int

	buf scratch
}

// scratch holds the backing arrays init carves a solver out of.  A
// pooled solver keeps them from call to call and regrows one only when
// a call needs more than it holds.
type scratch struct {
	ints   []int
	slab   []uint64
	sets   []bitset
	bcols  [][]int32
	brels  []*structure.Relation
	brows  [][]int32
	cons   []constraint
	consOf [][]int
	inQ    []bool
	marks  []uint64 // retract's two masks
}

// reuse returns buf[:n], zeroed, regrowing it if it is too short.
func reuse[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	out := (*buf)[:n:n]
	clear(out)
	return out
}

// solverPool recycles the solvers of calls that finish before they
// return (Exists, Retract, Find, Count, ForEachExtendable): the front
// end runs thousands of small homomorphism tests per query, and each
// would otherwise allocate its solver's arrays afresh.  A Sampler
// outlives its call and keeps a solver of its own.
var solverPool = sync.Pool{New: func() any { return new(solver) }}

// acquireSolver is newSolver on a pooled solver; release it when done.
func acquireSolver[T Target](A *structure.Atoms, B T, opts Options) *solver {
	bs, ba := target(B)
	return solverPool.Get().(*solver).init(A, bs, ba, opts)
}

// maxPooledWords caps the bitset slab and the candidate-row bitmap a
// pooled solver keeps (512 KiB each): the support rows of a large B are
// left to the collector rather than held for the next small call.
const maxPooledWords = 1 << 16

// release returns s to the pool, dropping its references to A and B.
func (s *solver) release() {
	clear(s.buf.cons[:cap(s.buf.cons)])
	clear(s.buf.bcols[:cap(s.buf.bcols)])
	clear(s.buf.brels[:cap(s.buf.brels)])
	clear(s.buf.brows[:cap(s.buf.brows)])
	if cap(s.buf.slab) > maxPooledWords {
		s.buf.slab = nil
	}
	if cap(s.candBuf) > maxPooledWords {
		s.candBuf = nil
	}
	s.A, s.cons, s.initDom = nil, nil, nil
	solverPool.Put(s)
}

// candWords returns a zeroed word bitmap covering n rows from the pooled
// scratch.
func (s *solver) candWords(n int) []uint64 {
	w := (n + 63) / 64
	if cap(s.candBuf) < w {
		s.candBuf = make([]uint64, w)
	}
	buf := s.candBuf[:w]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// cloneDoms returns a recycled (or fresh, flat-backed) copy of dom.
func (s *solver) cloneDoms(dom []bitset) []bitset {
	var d []bitset
	if n := len(s.domFree); n > 0 {
		d = s.domFree[n-1]
		s.domFree = s.domFree[:n-1]
	} else {
		d = carveBitsets(make([]bitset, s.nA), make([]uint64, s.nA*s.words), s.words)
	}
	for v := range dom {
		copy(d[v], dom[v])
	}
	return d
}

// carveBitsets points each of sets at its own words-word window of flat.
func carveBitsets(sets []bitset, flat []uint64, words int) []bitset {
	for v := range sets {
		sets[v] = flat[v*words : (v+1)*words : (v+1)*words]
	}
	return sets
}

func (s *solver) releaseDoms(d []bitset) { s.domFree = append(s.domFree, d) }

// newSolver returns a fresh solver for homomorphisms A → B under opts.
func newSolver[T Target](A *structure.Atoms, B T, opts Options) *solver {
	bs, ba := target(B)
	return new(solver).init(A, bs, ba, opts)
}

// init sets s up for homomorphisms A → B under opts, B being the data
// structure bs or the formula body ba (the other nil), carving every
// array out of s.buf.  The recycled domain copies survive when the
// domains keep their shape.
func (s *solver) init(A *structure.Atoms, bs *structure.Structure, ba *structure.Atoms, opts Options) *solver {
	var nB int
	if bs != nil {
		nB = bs.Size()
	} else {
		nB = ba.Size()
	}
	nA, words := A.Size(), (nB+63)/64
	domFree := s.domFree
	if nA != s.nA || words != s.words {
		domFree = nil
	}
	*s = solver{A: A, nA: nA, nB: nB, words: words, domFree: domFree, candBuf: s.candBuf, buf: s.buf}
	sig := A.Signature()
	// B's tuples of each of A's relations: a relation B lacks has none.
	brels := reuse(&s.buf.brels, sig.NumRels())
	brows := reuse(&s.buf.brows, sig.NumRels())
	bLen := func(i int) int {
		if bs != nil {
			return brels[i].Len()
		}
		return len(brows[i]) / sig.Rel(i).Arity
	}
	nCons, nSlots, nCols, maxAr, nBitRels := 0, 0, 0, 0, 0
	for i := 0; i < sig.NumRels(); i++ {
		r := sig.Rel(i)
		n := len(A.Args(i)) / r.Arity
		if n == 0 {
			continue
		}
		if bs != nil {
			brels[i] = bs.Rel(r.Name)
		} else if j, ok := ba.Signature().Index(r.Name); ok {
			brows[i] = ba.Args(j)
		}
		nCons += n
		nSlots += n * r.Arity
		if bs != nil {
			nCols += r.Arity
		}
		if r.Arity > maxAr {
			maxAr = r.Arity
		}
		if structure.BitRowsFit(r.Arity, s.nB, bLen(i)) {
			nBitRels++
		}
	}
	// One constraint per A-tuple; the vars slices, the consOf lists and
	// the solver's int scratch are carved out of one array, and the
	// initial domains, the support scratch and every relation's support
	// rows out of another.
	ints := reuse(&s.buf.ints, 2*nSlots+nCons+2*s.nA)
	carve := func(n int) []int {
		out := ints[:n:n]
		ints = ints[n:]
		return out
	}
	rowWords := s.nB * s.words
	slab := reuse(&s.buf.slab, (s.nA+maxAr)*s.words+2*nBitRels*rowWords)
	sets := carveBitsets(reuse(&s.buf.sets, s.nA+maxAr), slab, s.words)
	dom := sets[:s.nA:s.nA]
	s.supBuf = sets[s.nA:]
	slab = slab[(s.nA+maxAr)*s.words:]
	flat, deg := carve(nSlots), carve(s.nA)
	bcols := reuse(&s.buf.bcols, nCols)
	s.cons = reuse(&s.buf.cons, nCons)[:0]
	for i := 0; i < sig.NumRels(); i++ {
		r := sig.Rel(i)
		args := A.Args(i)
		if len(args) == 0 {
			continue
		}
		c := constraint{brel: brels[i], brows: brows[i]}
		if c.brel != nil {
			c.bcols, bcols = bcols[:r.Arity:r.Arity], bcols[r.Arity:]
			for p := 0; p < r.Arity; p++ {
				c.bcols[p] = c.brel.Col(p)
			}
		}
		if structure.BitRowsFit(r.Arity, s.nB, bLen(i)) {
			c.fwd, c.bwd = slab[:rowWords:rowWords], slab[rowWords:2*rowWords:2*rowWords]
			slab = slab[2*rowWords:]
			c.forEachPair(func(a, b int32) {
				bitset(c.fwd[int(a)*s.words:]).set(int(b))
				bitset(c.bwd[int(b)*s.words:]).set(int(a))
			})
		}
		for ; len(args) > 0; args = args[r.Arity:] {
			ac := c
			ac.vars = flat[:r.Arity:r.Arity]
			flat = flat[r.Arity:]
			for p, v := range args[:r.Arity] {
				ac.vars[p] = int(v)
			}
			if r.Arity == 2 && ac.vars[0] == ac.vars[1] {
				// R(x,x) constrains one domain by the relation's
				// diagonal: the row kernel's repeated-variable check.
				ac.fwd, ac.bwd = nil, nil
			}
			s.cons = append(s.cons, ac)
			for p, v := range ac.vars {
				if firstAt(ac.vars, p) {
					deg[v]++
				}
			}
		}
	}
	s.consOf = reuse(&s.buf.consOf, s.nA)
	flat = carve(nSlots)
	for v, d := range deg {
		s.consOf[v] = flat[:0:d]
		flat = flat[d:]
	}
	for ci := range s.cons {
		vars := s.cons[ci].vars
		for p, v := range vars {
			if firstAt(vars, p) {
				s.consOf[v] = append(s.consOf[v], ci)
			}
		}
	}
	s.queue, s.assign = carve(nCons)[:0], carve(s.nA)
	s.inQueue = reuse(&s.buf.inQ, nCons)
	// Initial domains.
	for v := range dom {
		dom[v].fill(s.nB)
	}
	for v, allowed := range opts.Restrict {
		dom[v].zero()
		for _, b := range allowed {
			if b >= 0 && b < s.nB {
				dom[v].set(b)
			}
		}
	}
	for v, b := range opts.Pin {
		if b < 0 || b >= s.nB || !dom[v].has(b) {
			s.initErr = fmt.Errorf("hom: pin %d→%d outside domain", v, b)
			return s
		}
		dom[v].zero()
		dom[v].set(b)
	}
	s.initDom = dom
	return s
}

// forEachPair calls fn on every tuple of a binary constraint's relation.
func (c *constraint) forEachPair(fn func(a, b int32)) {
	if c.brel != nil {
		for row, a := range c.bcols[0] {
			fn(a, c.bcols[1][row])
		}
		return
	}
	for t := c.brows; len(t) > 0; t = t[2:] {
		fn(t[0], t[1])
	}
}

// firstAt reports whether position p is the first occurrence of vars[p].
func firstAt(vars []int, p int) bool {
	for q := 0; q < p; q++ {
		if vars[q] == vars[p] {
			return false
		}
	}
	return true
}

// propagate runs generalized arc consistency to a fixpoint on dom,
// starting from the constraints of A-element from (from < 0: all
// constraints).  A caller passing from ≥ 0
// narrowed only from's domain since dom was last at that fixpoint.  It
// returns false if some domain became empty.
//
// One worklist serves two revise kernels.  Both compute, per position,
// the set of values that some B-tuple consistent with every current
// domain supports; the fixpoint of that operator is unique, so which
// kernel revises a constraint — and in what order — cannot change the
// resulting domains.  A revision leaves its own constraint at its
// fixpoint, and a variable's constraints are queued whenever its domain
// narrows, save the entailed ones (see narrowed): so every constraint
// off the queue is arc consistent, and an empty queue is the fixpoint.
func (s *solver) propagate(dom []bitset, from int) bool {
	ok := s.run(dom, from)
	if !ok {
		for _, ci := range s.queue {
			s.inQueue[ci] = false
		}
	}
	return ok
}

// run is propagate without its cleanup: a false return may leave
// constraints on the queue.
func (s *solver) run(dom []bitset, from int) bool {
	s.queue = s.queue[:0]
	if from >= 0 {
		s.narrowed(dom, from, -1)
	} else {
		for ci := range s.cons {
			s.inQueue[ci] = true
			s.queue = append(s.queue, ci)
		}
	}
	for len(s.queue) > 0 {
		ci := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.inQueue[ci] = false
		c := &s.cons[ci]
		support := s.supBuf[:len(c.vars)]
		if c.fwd != nil {
			if !reviseBits(c, dom, support) {
				return false
			}
		} else if !s.reviseRows(c, dom, support) {
			return false
		}
		for p, v := range c.vars {
			if dom[v].intersect(support[p]) {
				if dom[v].empty() {
					return false
				}
				s.narrowed(dom, v, ci)
			}
		}
	}
	return true
}

// narrowed queues the constraints of v, whose domain just narrowed to a
// non-empty set, except ci (just revised, hence at its own fixpoint) and
// the entailed ones.
//
// A binary constraint R(v,y) on two distinct variables whose y is the
// singleton {b} is entailed: it was revised after y became {b} — every
// narrowing of y queues it, and a revision that narrows y is its own —
// so dom[v] ⊆ R⁻¹(b) already, and narrowing v further cannot unsupport
// anything short of emptying dom[v], which its narrowing reports.
func (s *solver) narrowed(dom []bitset, v, ci int) {
	for _, cj := range s.consOf[v] {
		if cj == ci || s.inQueue[cj] {
			continue
		}
		if y := s.cons[cj].partner(v); y >= 0 && dom[y].single() {
			continue
		}
		s.inQueue[cj] = true
		s.queue = append(s.queue, cj)
	}
}

// partner returns the variable of c other than v when c is a binary
// constraint on two distinct variables, and -1 otherwise.
func (c *constraint) partner(v int) int {
	if len(c.vars) != 2 || c.vars[0] == c.vars[1] {
		return -1
	}
	if c.vars[0] == v {
		return c.vars[1]
	}
	return c.vars[0]
}

// reviseBits is the bit-row revise kernel (bitwise arc consistency in
// the sense of Lecoutre–Vion's AC3^bit) for R(x,y), x ≠ y: for each
// value a of the smaller domain, t = row[a] ∩ dom[other] is the set of
// a's partners; t joins the other side's support and a is supported iff
// t is non-empty.  That is |dom| word operations per universe word where
// the row kernel visits every candidate B-tuple.  It returns false if a
// domain is empty.
func reviseBits(c *constraint, dom, support []bitset) bool {
	small, other, rows := 0, 1, c.fwd
	cs, co := bitvec.Count(dom[c.vars[0]]), bitvec.Count(dom[c.vars[1]])
	if co < cs {
		small, other, rows = 1, 0, c.bwd
		cs, co = co, cs
	}
	if cs == 0 {
		return false
	}
	ds, do := dom[c.vars[small]], dom[c.vars[other]]
	ss, so := support[small], support[other]
	if len(do) == 1 {
		// A universe of at most 64 elements: each value's row is a word.
		d, sup, keep := do[0], uint64(0), uint64(0)
		for w := ds[0]; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			if t := rows[j] & d; t != 0 {
				sup |= t
				keep |= 1 << j
			}
		}
		ss[0], so[0] = keep, sup
		return true
	}
	so.zero()
	for i, w := range ds {
		keep := uint64(0)
		for w != 0 {
			j := bits.TrailingZeros64(w)
			w &^= 1 << j
			row := rows[(i<<6|j)*len(do):]
			any := uint64(0)
			for k, d := range do {
				t := row[k] & d
				so[k] |= t
				any |= t
			}
			if any != 0 {
				keep |= 1 << j
			}
		}
		ss[i] = keep
	}
	return true
}

// reviseRows is the row revise kernel, for every constraint without
// support rows (arity ≠ 2, a repeated variable, a relation too sparse
// for its universe): it visits candidate B-tuples and marks the values
// of each tuple consistent with every domain.  It returns false if a
// domain or the relation is empty.
func (s *solver) reviseRows(c *constraint, dom, support []bitset) bool {
	// A formula target's few atoms are scanned.  A data target's
	// candidate B-tuples come from the posting lists of the position
	// whose variable has the smallest domain: the union over that
	// domain's values is disjoint (each row holds one value there)
	// and visits only rows consistent with the tightest domain.
	// Only a near-unpruned pivot (≥ 3/4 of the universe) falls back
	// to a contiguous column sweep, which is cheaper than per-value
	// posting lookups when almost every row qualifies anyway.
	bestPos, bestCnt := -1, 1<<30
	for p, v := range c.vars {
		if cnt := bitvec.Count(dom[v]); cnt < bestCnt {
			bestPos, bestCnt = p, cnt
		}
	}
	if bestCnt == 0 || len(c.brows) == 0 && c.brel.Len() == 0 {
		return false
	}
	for _, b := range support {
		b.zero()
	}
	if c.brel == nil {
		for t := c.brows; len(t) > 0; t = t[len(c.vars):] {
			addTupleSupport(c.vars, t[:len(c.vars)], dom, support)
		}
		return true
	}
	bcols := c.bcols
	vars := c.vars
	if 4*bestCnt < 3*s.nB {
		// Restrictive pivot: set the candidate-row bit of every row
		// on the posting lists of the domain's values (the lists are
		// disjoint, each row holding one value at the pivot
		// position), then visit each candidate row once in
		// increasing, cache-friendly order.
		words := s.candWords(c.brel.Len())
		for val := range bitvec.Each(dom[vars[bestPos]]) {
			for _, r := range c.brel.RowsWith(bestPos, val) {
				words[r>>6] |= 1 << (r & 63)
			}
		}
		for wi, w := range words {
			for w != 0 {
				j := bits.TrailingZeros64(w)
				w &^= 1 << j
				addRowSupport(vars, bcols, dom, support, wi<<6|j)
			}
		}
	} else {
		// Unpruned pivot domain: a contiguous column sweep beats
		// per-value posting lookups (the row filter still applies).
		n := c.brel.Len()
		for row := 0; row < n; row++ {
			addRowSupport(vars, bcols, dom, support, row)
		}
	}
	return true
}

// addRowSupport marks row's values as supported at every position,
// unless some value falls outside its variable's domain or repeated
// variables disagree.
func addRowSupport(vars []int, bcols [][]int32, dom []bitset, support []bitset, row int) {
	ar := len(vars)
	for p, v := range vars {
		u := int(bcols[p][row])
		if !dom[v].has(u) {
			return
		}
		for q := p + 1; q < ar; q++ {
			if vars[q] == v && int(bcols[q][row]) != u {
				return
			}
		}
	}
	for p := range vars {
		support[p].set(int(bcols[p][row]))
	}
}

// addTupleSupport is addRowSupport for one row-major tuple t of a
// formula target.
func addTupleSupport(vars []int, t []int32, dom []bitset, support []bitset) {
	for p, v := range vars {
		u := int(t[p])
		if !dom[v].has(u) {
			return
		}
		for q := p + 1; q < len(vars); q++ {
			if vars[q] == v && t[q] != t[p] {
				return
			}
		}
	}
	for p, u := range t {
		support[p].set(int(u))
	}
}

// search runs backtracking search from the (propagated) domains dom.
// onSolution is invoked with the value of each variable in a buffer the
// solver reuses (copy to retain); returning false stops the search.
// Returns true if the search was stopped early.
func (s *solver) search(dom []bitset, onSolution func(assign []int) bool) bool {
	return !s.searchRec(dom, onSolution)
}

// searchRec reports whether the search should continue.
func (s *solver) searchRec(dom []bitset, onSolution func(assign []int) bool) bool {
	// MRV: pick unfixed variable with smallest domain > 1.
	pick, pickCnt := -1, 1<<30
	for v := 0; v < s.nA; v++ {
		c := bitvec.Count(dom[v])
		if c == 0 {
			return true
		}
		if c > 1 && c < pickCnt {
			pick, pickCnt = v, c
		}
	}
	if pick == -1 {
		assign := s.assign
		for v := 0; v < s.nA; v++ {
			assign[v] = dom[v].first()
		}
		// dom is a fixpoint of propagate with every variable fixed:
		// every constraint holds, and no two group members share a value.
		return onSolution(assign)
	}
	for b := range bitvec.Each(dom[pick]) {
		nd := s.cloneDoms(dom)
		nd[pick].zero()
		nd[pick].set(b)
		cont := true
		if s.propagate(nd, pick) {
			cont = s.searchRec(nd, onSolution)
		}
		s.releaseDoms(nd)
		if !cont {
			return false
		}
	}
	return true
}

// initialDomains propagates the solver's initial domains in place and
// returns them; a solver hands them out once.
func (s *solver) initialDomains() ([]bitset, bool) {
	if s.initErr != nil {
		return nil, false
	}
	dom := s.initDom
	if !s.propagate(dom, -1) {
		return nil, false
	}
	return dom, true
}

// Find searches for a homomorphism from A to B subject to opts and returns
// the full assignment (A-element index → B-element index) if one exists.
func Find[T Target](A *structure.Atoms, B T, opts Options) ([]int, bool) {
	s := acquireSolver(A, B, opts)
	defer s.release()
	return s.find()
}

func (s *solver) find() ([]int, bool) {
	dom, ok := s.initialDomains()
	if !ok {
		return nil, false
	}
	var sol []int
	s.search(dom, func(assign []int) bool {
		sol = append([]int(nil), assign...)
		return false
	})
	return sol, sol != nil
}

// firstSolution is the onSolution callback of an existence check: it
// stops search at the first solution, so search reports whether one
// exists.
func firstSolution([]int) bool { return false }

// Exists reports whether a homomorphism from A to B subject to opts exists.
func Exists[T Target](A *structure.Atoms, B T, opts Options) bool {
	s := acquireSolver(A, B, opts)
	defer s.release()
	return s.exists()
}

func (s *solver) exists() bool {
	dom, ok := s.initialDomains()
	return ok && s.search(dom, firstSolution)
}

// Count returns the number of homomorphisms from A to B subject to opts.
// Enumeration-based: intended for small instances and tests.
func Count[T Target](A *structure.Atoms, B T, opts Options) *big.Int {
	s := acquireSolver(A, B, opts)
	defer s.release()
	return s.count()
}

func (s *solver) count() *big.Int {
	total := new(big.Int)
	dom, ok := s.initialDomains()
	if !ok {
		return total
	}
	one := big.NewInt(1)
	s.search(dom, func([]int) bool {
		total.Add(total, one)
		return true
	})
	return total
}

// ForEachExtendable enumerates, in lexicographic order of the projection
// variables, every assignment g of proj (A-element indices) such that g
// extends to a full homomorphism A → B under opts.  fn receives the values
// aligned with proj; returning false stops the enumeration.  Each distinct
// g is reported exactly once: this is exactly the answer-set semantics
// φ(B) for the pp-formula (A, proj).
func ForEachExtendable[T Target](A *structure.Atoms, B T, proj []int, opts Options, fn func(vals []int) bool) {
	s := acquireSolver(A, B, opts)
	defer s.release()
	dom, ok := s.initialDomains()
	if !ok {
		return
	}
	vals := make([]int, len(proj))
	var rec func(i int, dom []bitset) bool
	rec = func(i int, dom []bitset) bool {
		if i == len(proj) {
			// All projection variables fixed; check a completion exists.
			if !s.search(dom, firstSolution) {
				return true
			}
			return fn(vals)
		}
		v := proj[i]
		for b := range bitvec.Each(dom[v]) {
			nd := s.cloneDoms(dom)
			nd[v].zero()
			nd[v].set(b)
			cont := true
			if s.propagate(nd, v) {
				vals[i] = b
				cont = rec(i+1, nd)
			}
			s.releaseDoms(nd)
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0, dom)
}

// Retract returns, in increasing order, the elements of a core of A under
// the endomorphisms that fix every element of fixed pointwise: an induced
// substructure A[I] ⊇ fixed that A maps onto and that has no proper
// endomorphism of that kind (it is unique up to isomorphism).
//
// One solver on (A, A) serves the whole computation.  Pinning fixed is
// the constraint-solver form of augmenting A with a singleton unary
// relation per fixed element.  The codomain is a shrinking mask I: since
// A maps into A[I], A[I] has an endomorphism missing v iff A maps into
// A[I∖{v}], which is decided on cloned domains with v's bit cleared;
// a witness h shrinks I to h(I).  A vertex that cannot be dropped from I
// cannot be dropped from any subset of I either, so one pass over the
// vertices reaches the core.
func Retract(A *structure.Atoms, fixed []int) []int {
	s := acquireSolver(A, A, Options{})
	defer s.release()
	return s.retract(fixed)
}

// retract is Retract on a solver for (A, A) without options.
func (s *solver) retract(fixed []int) []int {
	for _, v := range fixed {
		s.initDom[v].zero()
		s.initDom[v].set(v)
	}
	// base is the arc-consistent closure of "fixed pinned, codomain I".
	// The identity is a solution, so no domain empties.
	base, _ := s.initialDomains()
	marks := reuse(&s.buf.marks, 2*s.words)
	inI, img := bitset(marks[:s.words:s.words]), bitset(marks[s.words:])
	inI.fill(s.nA)
	for v := 0; v < s.nA; v++ {
		if !inI.has(v) || (base[v].has(v) && bitvec.Count(base[v]) == 1) {
			// Already dropped, or every solution maps v to itself.
			continue
		}
		nd := s.cloneDoms(base)
		for u := range nd {
			nd[u].clear(v)
		}
		dropped := s.propagate(nd, -1) && s.search(nd, func(h []int) bool {
			img.zero()
			for u := range bitvec.Each(inI) {
				img.set(h[u])
			}
			return false
		})
		s.releaseDoms(nd)
		if dropped {
			copy(inI, img)
			for u := range base {
				base[u].intersect(inI)
			}
			s.propagate(base, -1)
		}
	}
	keep := make([]int, 0, bitvec.Count(inI))
	for v := range bitvec.Each(inI) {
		keep = append(keep, v)
	}
	return keep
}

// SortElems returns a sorted copy of indices (utility shared by callers).
func SortElems(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
