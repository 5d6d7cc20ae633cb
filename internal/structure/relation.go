package structure

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Relation is the columnar store of one relation's tuple set: a flat
// []int32 column per position, a packed-key TupleSet for O(1)
// dedup/membership, and per-position posting lists (value → the ids of
// the rows holding it there).  The posting lists are built from the
// columns by the first RowsWith and appended to on every insert after
// that, never rebuilt: a structure nobody reads them on never pays for
// them.  Row ids only grow, so every posting list ascends; its readers
// iterate it (RowsWith) and may stop at a row cut.  Rows are exposed
// through allocation-free iteration (ForEachTuple) and row views.
//
// A binary relation that fits BitRowsFit keeps value-space rows (fitRows).
//
// A Relation is mutated only through its owning Structure (single
// mutator); any number of goroutines may read it — its rows and its
// posting lists included, the first RowsWith building the lists under a
// lock — concurrently between mutations.
type Relation struct {
	name  string
	arity int
	cols  [][]int32 // per position, len == Len()
	set   *TupleSet

	// posts holds, per position, value → ascending row ids once built is
	// set; buildMu serializes the build.
	posts   []map[int32][]int32
	built   atomic.Bool
	buildMu sync.Mutex

	fwd, bwd []uint64 // rows of u: {v : (u,v)}, {v : (v,u)}; nil unless it fits
	stride   int
}

func newRelation(name string, arity int) *Relation {
	return &Relation{
		name:  name,
		arity: arity,
		cols:  make([][]int32, arity),
		set:   NewTupleSet(arity),
	}
}

// buildPosts lays the posting lists out from the columns, once.
func (r *Relation) buildPosts() {
	if r.built.Load() {
		return
	}
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if r.built.Load() {
		return
	}
	r.posts = make([]map[int32][]int32, r.arity)
	for p, col := range r.cols {
		r.posts[p] = make(map[int32][]int32)
		for row, v := range col {
			r.posts[p][v] = append(r.posts[p][v], int32(row))
		}
	}
	r.built.Store(true)
}

// Len returns the number of distinct tuples.
func (r *Relation) Len() int {
	if r == nil || r.arity == 0 {
		return 0
	}
	return len(r.cols[0])
}

// add inserts t (already arity- and range-checked by the Structure, whose
// universe holds dom elements) and reports whether it was new.  Posting
// lists (once built), the dedup set and the rows are updated in place.
func (r *Relation) add(t []int, dom int) bool {
	if !r.set.Add(t) {
		return false
	}
	row := int32(len(r.cols[0]))
	for p, v := range t {
		r.cols[p] = append(r.cols[p], int32(v))
		if r.posts != nil {
			r.posts[p][int32(v)] = append(r.posts[p][int32(v)], row)
		}
	}
	if r.fwd == nil {
		r.fitRows(dom)
		return true
	}
	u, v := t[0], t[1]
	r.fwd[u*r.stride+v>>6] |= 1 << (v & 63)
	r.bwd[v*r.stride+u>>6] |= 1 << (u & 63)
	return true
}

// fitRows brings the rows in line with a universe of dom elements: none
// unless the relation fits, else laid out from the columns when it starts
// to fit or outgrows the stride (which then at least doubles).
func (r *Relation) fitRows(dom int) {
	words := (dom + 63) / 64
	switch {
	case dom < RowsMinDom || !BitRowsFit(r.arity, dom, r.Len()):
		r.fwd, r.bwd, r.stride = nil, nil, 0
	case r.fwd == nil || words > r.stride:
		r.stride = max(words, 2*r.stride)
		r.fwd, r.bwd = make([]uint64, dom*r.stride), make([]uint64, dom*r.stride)
		for i, u := range r.cols[0] {
			v := r.cols[1][i]
			r.fwd[int(u)*r.stride+int(v>>6)] |= 1 << (v & 63)
			r.bwd[int(v)*r.stride+int(u>>6)] |= 1 << (u & 63)
		}
	default: // the empty rows of new elements
		r.fwd = append(r.fwd, make([]uint64, dom*r.stride-len(r.fwd))...)
		r.bwd = append(r.bwd, make([]uint64, dom*r.stride-len(r.bwd))...)
	}
}

// BitRows returns the relation's value-space rows, shared and read-only —
// fwd row u holds the v with (u, v), bwd row v the u — or nils.
func (r *Relation) BitRows() (fwd, bwd []uint64, stride int) { return r.fwd, r.bwd, r.stride }

// Contains reports membership of t.
func (r *Relation) Contains(t []int) bool {
	return r != nil && r.set.Contains(t)
}

// Row copies row i into buf (which must have length >= arity) and
// returns buf[:arity].
func (r *Relation) Row(i int, buf []int) []int {
	buf = buf[:r.arity]
	for p := range r.cols {
		buf[p] = int(r.cols[p][i])
	}
	return buf
}

// Value returns the element index at (row, pos) without materializing the
// row.
func (r *Relation) Value(row, pos int) int { return int(r.cols[pos][row]) }

// Col returns position pos's column as a shared read-only view.
func (r *Relation) Col(pos int) []int32 {
	if r == nil {
		return nil
	}
	return r.cols[pos]
}

// ForEachTuple visits every tuple in insertion order.  The slice passed
// to fn is a single reused buffer: callers must copy it to retain it.
// Returning false stops the iteration.
func (r *Relation) ForEachTuple(fn func(t []int) bool) {
	if r == nil {
		return
	}
	r.ForEachTupleIn(0, r.Len(), fn)
}

// ForEachTupleIn visits the tuples in rows [lo, hi) in insertion order,
// through a reused row buffer (copy to retain).  Rows are append-only,
// so [oldLen, Len()) is exactly the set of tuples appended since an
// earlier observation of oldLen.
// Returning false stops early.
func (r *Relation) ForEachTupleIn(lo, hi int, fn func(t []int) bool) {
	if r == nil || r.arity == 0 {
		return
	}
	if n := r.Len(); hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return
	}
	buf := make([]int, r.arity)
	for i := lo; i < hi; i++ {
		for p := range r.cols {
			buf[p] = int(r.cols[p][i])
		}
		if !fn(buf) {
			return
		}
	}
}

// RowsWith returns the ascending ids of the rows holding value v at
// position pos, as a shared read-only view; nil means no row holds v
// there.  The first call builds the relation's posting lists.
func (r *Relation) RowsWith(pos, v int) []int32 {
	if r == nil || pos < 0 || pos >= r.arity {
		return nil
	}
	r.buildPosts()
	return r.posts[pos][int32(v)]
}

// clone returns a deep copy sharing nothing with r.  The copy has posting
// lists, laid out from its own columns, if r has built its own.
func (r *Relation) clone() *Relation {
	c := &Relation{
		name:  r.name,
		arity: r.arity,
		cols:  make([][]int32, r.arity),
		set:   r.set.clone(),
	}
	for p := range r.cols {
		c.cols[p] = append([]int32(nil), r.cols[p]...)
	}
	if r.built.Load() {
		c.buildPosts()
	}
	c.fwd, c.bwd, c.stride = slices.Clone(r.fwd), slices.Clone(r.bwd), r.stride
	return c
}

// RowsMinDom is the smallest universe with rows: a row is at least a word.
const RowsMinDom = 64

// bitRowWordsPerTuple bounds the size of a binary relation's value-space
// rows (row a = {b : R(a,b)}, a bitset over the universe): a direction's
// dom·⌈dom/64⌉ words may not exceed this many words per tuple, which
// keeps the rows, quadratic in the universe, near the size of the
// relation.  The hom solver's micro-benchmarks on either side place the
// bound where the time saved stops paying for the memory:
// Hom_CountPath4_N300 (1.4 words per tuple) and
// Hom_ForEachExtendablePath4_N800 (4.3) run 1.9× and 2.0× faster on bit
// rows; Hom_ExistsPath6_N1500 (5.9) would run 1.3× faster for 38× the
// allocation (595 KB against 16 KB per call) and keeps the row kernel.
const bitRowWordsPerTuple = 5

// BitRowsFit reports whether a relation of the given arity with tuples
// tuples over dom elements is laid out as value-space rows: the one rule
// of the hom solver's support rows and the join executor's table rows.
func BitRowsFit(arity, dom, tuples int) bool {
	return arity == 2 && tuples > 0 && dom*((dom+63)/64) <= bitRowWordsPerTuple*tuples
}
