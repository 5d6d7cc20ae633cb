package engine

import (
	"context"
	"math/big"
	"math/bits"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/structure"
)

// Incremental count maintenance: advance a memoized FPT count across an
// append batch instead of recounting from scratch.
//
// The FPT plan's per-component value factorizes as |B|^free × J, where
// J is the join count over the component's constraint tables and is a
// pure function of those tables (every active variable is covered by a
// constraint somewhere in the decomposition, so locally-free bag
// positions are always filtered through the merges toward their
// constraint's node — growing the universe without touching the tables
// leaves J unchanged).  Structures are append-only, so between two
// versions each table satisfies newT = oldT ⊎ ΔT with ΔT the projected
// rows first seen in the appended tuple range.  J is multilinear in the
// row-membership indicators, so the standard telescoped delta-join
// identity is exact — no inclusion–exclusion over overlaps is needed:
//
//	J(new₁..newₖ) − J(old₁..oldₖ) = Σᵢ J(new₁..newᵢ₋₁, Δᵢ, oldᵢ₊₁..oldₖ)
//
// Each summand pins one constraint to its (typically tiny) delta table
// and runs the ordinary bind-order/prefix-index executor on it.
//
// The k inputs of a summand are read straight off the columnar store,
// not from session tables (seedWalk).  A relation's rows are append-only
// and an atom's projection onto its distinct variables is injective on
// the rows that pass its repeated-variable filter, so a table at an
// earlier version is exactly the projection of the relation's row prefix
// at that version: the snapshot's row count is the one cut point, "old"
// is row < dv.OldRows(rel), and Δᵢ is the appended row range.  Δᵢ is read
// first; the supports it leaves each variable seed and cut every other
// input, a semi-join reduction whose work is the values it keeps.  A
// plain binary atom over a relation that keeps rows (Relation.BitRows) is
// a live input, read in place and cut to the supports (execPlan.masks).
// Rows exist at the new version only, and J is linear in each input, so
// a live old = new − Δ: a correction pinned to Δⱼ too, of the other sign,
// takes Δⱼ out wherever it meets the supports (seedWalk.run).  Every
// other atom is fetched as tuples through the store's posting lists
// (Relation.RowsWith).  A read after an append costs the delta joins;
// the memoized state is the join values alone.
//
// The delta path applies only to delta-maintainable plans (fptPlan.
// deltaOK: quantifier-free joins over atom constraints; predicate
// tables, sentences' included, are not pure functions of appended rows)
// and only while the batch is small relative to the structure
// (deltaMinRows, deltaMaxPct); everything else falls back to a full
// recount, which is always sound.

// deltaMaintainable reports whether every component of a compiled plan
// is a quantifier-free join over atom constraints — the shape the
// telescoped delta-join advance handles.
func deltaMaintainable(comps []*planComponent) bool {
	for _, pc := range comps {
		for i := range pc.constraints {
			if pc.constraints[i].pred != nil {
				return false
			}
		}
	}
	return true
}

// deltaMinRows and deltaMaxPct gate when an advance is attempted: a
// batch of at most deltaMinRows appended tuples always takes the delta
// path; a larger one only while appended·100 ≤ deltaMaxPct·total.
// Beyond that the delta joins approach the cost of the full DP and a
// recount re-anchors the state.  deltaDisabled makes every keyed count
// a full recount.  Nothing outside the package's own tests
// (export_test.go) writes the three: they force or starve the delta
// path, and switch it off for the recount baseline.
var (
	deltaMinRows  = 256
	deltaMaxPct   = 50
	deltaDisabled = false
)

// deltaAdvances counts memoized counts advanced by the delta path;
// deltaFullRecounts counts advances that fell back to a full recount
// at the threshold gate (telemetry; see DeltaStats).
var (
	deltaAdvances     atomic.Uint64
	deltaFullRecounts atomic.Uint64
)

// DeltaCounters is a snapshot of the incremental-maintenance telemetry:
// how many memoized counts were advanced across a version bump by the
// delta path, and how many advance opportunities fell back to a full
// recount at the threshold gate.  Advances elsewhere impossible (cold
// memos, non-maintainable plans) appear in neither counter.
type DeltaCounters struct {
	Advances     uint64 `json:"advances"`
	FullRecounts uint64 `json:"full_recounts"`
}

// DeltaStats returns the process-wide incremental-maintenance counters.
// Safe for concurrent use.
func DeltaStats() DeltaCounters {
	return DeltaCounters{Advances: deltaAdvances.Load(), FullRecounts: deltaFullRecounts.Load()}
}

// fptDeltaState is the advanceable part of a memoized FPT count: the
// per-component join values at the version the count was computed (the
// prior's snapshot says which rows they cover).  The joins are shared
// read-only big.Ints; an advance always allocates fresh ones.
type fptDeltaState struct {
	plan  *fptPlan
	joins []*big.Int // per component; the neutral 1 when nActive == 0
}

// newDeltaState returns an empty state sized to the plan's components.
func (pl *fptPlan) newDeltaState() *fptDeltaState {
	return &fptDeltaState{plan: pl, joins: make([]*big.Int, len(pl.comps))}
}

// countMaintained is the plan's keyed count: a delta-maintainable plan
// advances prev (the count the session adopted from the structure's
// previous version, if any) by the appended rows, or counts in full
// when there is no prior or the advance does not apply, and either way
// returns the state the next advance starts from.  Every other plan,
// and every plan while deltaDisabled, counts in full with no state.
func (pl *fptPlan) countMaintained(ctx context.Context, s *Session, prev *priorCount) (*big.Int, *fptDeltaState, error) {
	if !pl.deltaOK || deltaDisabled {
		v, err := pl.countIn(ctx, s, nil)
		return v, nil, err
	}
	if prev != nil {
		if v, st, ok, err := pl.countAdvanceIn(ctx, s, *prev); ok || err != nil {
			return v, st, err
		}
	}
	st := pl.newDeltaState()
	v, err := pl.countIn(ctx, s, st)
	if err != nil {
		return nil, nil, err
	}
	return v, st, nil
}

// countAdvanceIn advances a previously memoized count of a
// delta-maintainable plan to the session's version by telescoped
// delta-joins.  ok=false with a nil error means the delta path does not
// apply (foreign or future state, batch over threshold) and the caller
// should full-recount; a non-nil error (cancellation) is terminal either
// way.  The advance reads the structure, never the session's tables, so
// it needs no pin.
func (pl *fptPlan) countAdvanceIn(ctx context.Context, s *Session, prev priorCount) (*big.Int, *fptDeltaState, bool, error) {
	st := prev.state
	if st == nil || st.plan != pl || len(st.joins) != len(pl.comps) {
		return nil, nil, false, nil
	}
	if !pl.sig.Equal(s.B.Signature()) {
		return nil, nil, false, nil
	}
	dv, ok := s.B.DeltaSince(prev.snap)
	if !ok {
		return nil, nil, false, nil
	}
	if added := dv.TuplesAdded(); added > deltaMinRows &&
		added*100 > deltaMaxPct*s.B.NumTuples() {
		deltaFullRecounts.Add(1)
		return nil, nil, false, nil
	}
	ns := pl.newDeltaState()
	total := big.NewInt(1)
	for ci, pc := range pl.comps {
		if err := ctx.Err(); err != nil {
			return nil, nil, true, err
		}
		j, err := pc.advanceJoin(ctx, s.B, dv, st.joins[ci])
		if err != nil {
			return nil, nil, true, err
		}
		ns.joins[ci] = j
		f := structure.PowerSize(s.B, pc.freeVars)
		f.Mul(f, j)
		total.Mul(total, f)
	}
	deltaAdvances.Add(1)
	return total, ns, true, nil
}

// advanceJoin computes the component's join count at b's current
// version from its value at dv's snapshot: new J = old J + one
// telescoped delta-join per constraint whose relation grew.  oldJ is
// treated as read-only; the result is freshly allocated.
func (pc *planComponent) advanceJoin(ctx context.Context, b *structure.Structure, dv structure.DeltaView, oldJ *big.Int) (*big.Int, error) {
	if pc.nActive == 0 {
		return big.NewInt(1), nil
	}
	w := newSeedWalk(pc, b, dv, ctx.Done())
	j := new(big.Int).Set(oldJ)
	for i := range pc.constraints {
		if dv.NewRows(pc.constraints[i].rel) == 0 {
			continue
		}
		if !w.term(i, j) {
			return nil, ctxAbortErr(ctx)
		}
	}
	return j, nil
}

// seedWalk builds the inputs of one component's delta terms off the
// store.  Per variable it keeps the support that the inputs built so far
// for the current term leave it — the values as a list (vals; empty =
// no input covers the variable yet) to seed posting-list fetches from,
// and as a bitmap over the universe (in), the executor's mask.
type seedWalk struct {
	pc    *planComponent
	b     *structure.Structure
	dv    structure.DeltaView
	words int      // bitmap words per variable
	in    []uint64 // nActive bitmaps; set exactly at vals
	vals  [][]int32

	live   []*Table // a live constraint's store rows (storeRows); nil for the others
	i      int      // the current term's constraint
	pinned []bool   // constraints read as their Δ: i, and a correction's

	// done is polled every cancelCheckMask+1 row visits, as in
	// dpRun.cancelled; aborted latches.
	done    <-chan struct{}
	ops     int
	aborted bool
}

func newSeedWalk(pc *planComponent, b *structure.Structure, dv structure.DeltaView, done <-chan struct{}) *seedWalk {
	words, k := (b.Size()+63)/64, len(pc.constraints)
	w := &seedWalk{pc: pc, b: b, dv: dv, done: done, words: words,
		in: make([]uint64, pc.nActive*words), vals: make([][]int32, pc.nActive),
		live: make([]*Table, k), pinned: make([]bool, k)}
	for ci := range pc.constraints {
		c := &pc.constraints[ci]
		w.live[ci] = storeRows(c, b.Rel(c.rel), b.Size())
	}
	return w
}

// term adds J(new₁..newᵢ₋₁, Δᵢ, oldᵢ₊₁..oldₖ) to acc and reports whether
// it ran to completion (false: done fired).
func (w *seedWalk) term(i int, acc *big.Int) bool {
	w.i, w.pinned[i] = i, true
	defer func() { w.pinned[i] = false }()
	return w.run(i, acc, false)
}

// run adds (subtracts if neg) the term under the current pins to acc,
// then its corrections: per live constraint c past last whose Δc meets
// this term's supports (else it is zero), the term with c pinned too.
func (w *seedWalk) run(last int, acc *big.Int, neg bool) bool {
	j, ok := w.join()
	if !ok || j == nil || j.Sign() == 0 {
		return ok // a zero term has zero corrections
	}
	if neg {
		j.Neg(j)
	}
	acc.Add(acc, j)
	var next []int
	for c := last + 1; c < len(w.pinned); c++ {
		if w.live[c] != nil && w.meets(c) {
			next = append(next, c)
		}
	}
	for _, c := range next {
		w.pinned[c] = true
		ok = w.run(c, acc, !neg)
		if w.pinned[c] = false; !ok {
			return false
		}
	}
	return !w.aborted
}

// join builds the current term's inputs and counts it: nil when an input
// is empty, ok=false when done fired.  The tables, their prefix indexes
// and everything newExecPlan binds over them are garbage once the term
// is counted.
func (w *seedWalk) join() (j *big.Int, ok bool) {
	for v := range w.vals {
		w.clear(v)
	}
	tables := make([]*Table, len(w.pinned))
	for ci, seed := w.next(tables); ci >= 0; ci, seed = w.next(tables) {
		if !w.input(ci, seed, tables) {
			return nil, !w.aborted
		}
	}
	masks := make([][]uint64, len(w.vals)) // every variable is supported by now
	for v := range masks {
		masks[v] = w.in[v*w.words : (v+1)*w.words]
	}
	j, aborted := joinCount(w.pc, newExecPlan(w.pc, tables, masks), w.b.Size(), w.done)
	return j, !aborted
}

// input builds constraint ci's input — a live one's rows (view), or tuples
// (reduce) — and narrows its variables' supports; false: it is empty or
// done fired.
func (w *seedWalk) input(ci, seed int, tables []*Table) bool {
	if w.live[ci] != nil && !w.pinned[ci] && seed >= 0 {
		tables[ci] = w.view(ci)
		return tables[ci].n > 0
	}
	t := w.reduce(ci, seed)
	if w.aborted || t.n == 0 {
		return false
	}
	tables[ci] = t
	for p, v := range w.pc.constraints[ci].scope {
		w.support(v, t, p)
	}
	return true
}

// next picks the constraint to build next and the scope position to seed
// it from: a pinned one, read whole; else over the unbuilt constraints,
// the supported variable with the fewest values, so every fetch starts from the smallest set that bounds
// it.  ci is -1 when every table is built; seed is -1 for a constraint no
// built table shares a variable with (a component's atoms are connected,
// so there is none), which is then read whole.
func (w *seedWalk) next(tables []*Table) (ci, seed int) {
	ci, seed = -1, -1
	fewest := 0
	for c := range w.pc.constraints {
		if tables[c] != nil {
			continue
		}
		if w.pinned[c] {
			return c, -1 // a Δ input comes first, read whole
		} else if ci < 0 {
			ci = c
		}
		for p, v := range w.pc.constraints[c].scope {
			if n := len(w.vals[v]); n > 0 && (seed < 0 || n < fewest) {
				ci, seed, fewest = c, p, n
			}
		}
	}
	return ci, seed
}

// reduce builds constraint ci's tuples in the term: the rows of its
// relation in the term's range — appended since the snapshot when ci is
// pinned, all before i, older than the snapshot after i — that pass the
// atom's repeated-variable filter and hold a supported value at every
// supported variable, projected through the template (one table row per
// kept relation row: the projection is injective on them).  The rows are
// fetched from the posting lists of the values supporting scope position
// seed (row ids ascend, so each list is left at the cut); work is the
// rows visited, whatever the relation holds.
func (w *seedWalk) reduce(ci, seed int) *Table {
	c := &w.pc.constraints[ci]
	rel := w.b.Rel(c.rel)
	lo, hi := 0, rel.Len()
	if w.pinned[ci] {
		lo = w.dv.OldRows(c.rel)
	} else if ci > w.i {
		hi = w.dv.OldRows(c.rel)
	}
	t := newTable(len(c.scope), w.b.Size())
	row := make([]int, len(c.scope))
	keep := func(r int32) bool {
		if int(r) >= hi {
			return false // row ids ascend: the rest of the list is past the cut
		}
		if w.ops++; w.ops&cancelCheckMask == 0 {
			select {
			case <-w.done:
				w.aborted = true
				return false
			default:
			}
		}
		if c.project(rel, int(r), row) && w.supported(c.scope, row) {
			t.appendRow(row)
		}
		return true
	}
	if seed < 0 {
		for r := lo; r < hi && keep(int32(r)); r++ {
		}
		return t
	}
	arg := 0
	for c.atomTmpl[arg] != seed {
		arg++
	}
	for _, u := range w.vals[c.scope[seed]] {
		for _, r := range rel.RowsWith(arg, int(u)) {
			if !keep(r) {
				break
			}
		}
		if w.aborted {
			break
		}
	}
	return t
}

// supported reports whether every supported variable of scope holds a
// value of its support in row.
func (w *seedWalk) supported(scope, row []int) bool {
	for p, v := range scope {
		if u := row[p]; len(w.vals[v]) > 0 && w.in[v*w.words+u>>6]&(1<<(u&63)) == 0 {
			return false
		}
	}
	return true
}

// view narrows live constraint ci's supports through its rows, returned
// as a live table: of the side with fewer values, those whose row meets
// the other's support stay, and the other's becomes their rows' union.
func (w *seedWalk) view(ci int) *Table {
	c := &w.pc.constraints[ci]
	p := 0
	if x, y := len(w.vals[c.scope[0]]), len(w.vals[c.scope[1]]); x == 0 || y > 0 && y < x {
		p = 1
	}
	a, b, lt := c.scope[p], c.scope[1-p], w.live[ci]
	bIn, cut := w.in[b*w.words:][:w.words], len(w.vals[b]) > 0
	acc, n, kept := make([]uint64, w.words), 0, w.vals[a][:0]
	for _, u := range w.vals[a] {
		k := 0
		for i, x := range lt.bitRows[p][int(u)*lt.stride:][:w.words] {
			if cut {
				x &= bIn[i]
			}
			acc[i] |= x
			k += bits.OnesCount64(x)
		}
		if n += k; k > 0 {
			kept = append(kept, u)
		} else {
			w.in[a*w.words+int(u>>6)] &^= 1 << (u & 63)
		}
	}
	w.vals[a] = kept
	w.clear(b)
	copy(bIn, acc)
	for u := range bitvec.Each(bIn) {
		w.vals[b] = append(w.vals[b], int32(u))
	}
	return &Table{width: 2, n: n, dom: lt.dom, bitRows: lt.bitRows, stride: lt.stride}
}

// meets reports whether live constraint ci's Δ holds a tuple inside the
// current term's supports.
func (w *seedWalk) meets(ci int) bool {
	c := &w.pc.constraints[ci]
	rel, row := w.b.Rel(c.rel), make([]int, 2)
	for r := w.dv.OldRows(c.rel); r < rel.Len(); r++ {
		if c.project(rel, r, row); w.supported(c.scope, row) {
			return true
		}
	}
	return false
}

// clear empties variable v's support and returns its bitmap.
func (w *seedWalk) clear(v int) []uint64 {
	in := w.in[v*w.words : (v+1)*w.words]
	for _, u := range w.vals[v] {
		in[u>>6] &^= 1 << (u & 63)
	}
	w.vals[v] = w.vals[v][:0]
	return in
}

// support narrows variable v's support to the values in column p of t.
func (w *seedWalk) support(v int, t *Table, p int) {
	in := w.clear(v)
	for r := 0; r < t.n; r++ {
		if u := t.flat[r*t.width+p]; in[u>>6]&(1<<(u&63)) == 0 {
			in[u>>6] |= 1 << (u & 63)
			w.vals[v] = append(w.vals[v], u)
		}
	}
}
