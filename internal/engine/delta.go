package engine

import (
	"context"
	"math/big"
	"sync/atomic"

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
// and reuses the existing bind-order/prefix-index executor, whose
// smallest-table-first heuristic makes Δᵢ the pivot.  Cost per advance
// is the delta joins plus view indexing, not a fresh full DP.
//
// The split itself is free: session tables are materialized by scanning
// relation rows in insertion order with first-sighting dedup, so the
// old version's table is exactly the row prefix of the new version's
// table, and ΔT the suffix.  A memoized count therefore only needs to
// remember, per constraint, the table row count at its version
// (fptDeltaState.lens) — old and delta tables are zero-copy prefix and
// suffix views over the new session's tables.
//
// The delta path applies only to delta-maintainable plans (fptPlan.
// deltaOK: quantifier-free joins over atom constraints; sentence checks
// and ∃-component predicate tables are not pure functions of appended
// rows) and only while the batch is small relative to the structure
// (deltaMinRows, deltaMaxPct); everything else falls back to a full recount,
// which is always sound.

// deltaMaintainable reports whether every component of a compiled plan
// is a quantifier-free join over atom constraints — the shape the
// telescoped delta-join advance handles.
func deltaMaintainable(comps []*planComponent) bool {
	for _, pc := range comps {
		if pc.sentence || len(pc.extraSentences) > 0 {
			return false
		}
		for i := range pc.constraints {
			if pc.constraints[i].sub != nil {
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
// per-component join values and, per constraint, the session-table row
// counts at the version the count was computed — the cut points the
// next advance's prefix/suffix views split at.  The joins are shared
// read-only big.Ints; an advance always allocates fresh ones.
type fptDeltaState struct {
	plan  *fptPlan
	joins []*big.Int // per component; the neutral 1 when nActive == 0
	lens  [][]int    // per component, per constraint; nil when nActive == 0
}

// newDeltaState returns an empty state sized to the plan's components.
func (pl *fptPlan) newDeltaState() *fptDeltaState {
	return &fptDeltaState{
		plan:  pl,
		joins: make([]*big.Int, len(pl.comps)),
		lens:  make([][]int, len(pl.comps)),
	}
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
// way.
func (pl *fptPlan) countAdvanceIn(ctx context.Context, s *Session, prev priorCount) (*big.Int, *fptDeltaState, bool, error) {
	st := prev.state
	if st == nil || st.plan != pl || len(st.joins) != len(pl.comps) {
		return nil, nil, false, nil
	}
	if !pl.sig.Equal(s.B.Signature()) {
		return nil, nil, false, nil
	}
	if s.acquirePin() {
		defer s.releasePin()
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
		j, lens, ok, err := pc.advanceJoin(ctx, s, dv, st.joins[ci], st.lens[ci])
		if err != nil {
			return nil, nil, true, err
		}
		if !ok {
			return nil, nil, false, nil
		}
		ns.joins[ci] = j
		ns.lens[ci] = lens
		f := structure.PowerSize(s.B, pc.freeVars)
		f.Mul(f, j)
		total.Mul(total, f)
	}
	deltaAdvances.Add(1)
	return total, ns, true, nil
}

// advanceJoin computes the component's join count at the session's
// version from its value at an earlier version: new J = old J + one
// telescoped delta-join per constraint whose table grew.  oldJ is
// treated as read-only; the result is freshly allocated (or oldJ
// itself when nothing this component reads grew).
func (pc *planComponent) advanceJoin(ctx context.Context, s *Session, dv structure.DeltaView, oldJ *big.Int, oldLens []int) (*big.Int, []int, bool, error) {
	if pc.nActive == 0 {
		return big.NewInt(1), nil, true, nil
	}
	if oldJ == nil || len(oldLens) != len(pc.constraints) {
		return nil, nil, false, nil
	}
	grew := false
	for i := range pc.constraints {
		if dv.NewRows(pc.constraints[i].rel) > 0 {
			grew = true
			break
		}
	}
	if !grew {
		// No relation this component projects from gained rows: its
		// tables, and hence its join value, are unchanged.
		return oldJ, oldLens, true, nil
	}
	k := len(pc.constraints)
	newT := make([]*Table, k)
	lens := make([]int, k)
	for i := range pc.constraints {
		newT[i] = s.tableFor(&pc.constraints[i], nil)
		lens[i] = newT[i].Len()
		if oldLens[i] > lens[i] {
			return nil, nil, false, nil // not a prefix: state is not from this history
		}
	}
	// Split each table at its old row count.  Materialization scans
	// relation rows in insertion order with first-sighting dedup, and
	// relations are append-only, so the old version's table is exactly
	// the row prefix of the new one and ΔT the suffix — both zero-copy
	// views.  Constraints sharing a table key share one view pair so
	// the views' prefix indexes are shared within the advance too.
	oldV := make([]*Table, k)
	delV := make([]*Table, k)
	views := make(map[tableKey][2]*Table, k)
	for i := range pc.constraints {
		key := pc.constraints[i].key
		if v, hit := views[key]; hit {
			oldV[i], delV[i] = v[0], v[1]
			continue
		}
		o, d := prefixView(newT[i], oldLens[i]), suffixView(newT[i], oldLens[i])
		views[key] = [2]*Table{o, d}
		oldV[i], delV[i] = o, d
	}
	done := ctx.Done()
	delta := new(big.Int)
	mixed := make([]*Table, k)
	for i := 0; i < k; i++ {
		if delV[i].Len() == 0 {
			continue
		}
		for j := 0; j < i; j++ {
			mixed[j] = newT[j]
		}
		mixed[i] = delV[i]
		for j := i + 1; j < k; j++ {
			mixed[j] = oldV[j]
		}
		run, empty := semiJoinPrune(pc, mixed, s.B.Size())
		if empty {
			continue
		}
		ep := newExecPlan(pc, run, s.B.Size())
		j, aborted := joinCount(pc, ep, s.B.Size(), done)
		if aborted {
			return nil, nil, true, ctxAbortErr(ctx)
		}
		delta.Add(delta, j)
	}
	return new(big.Int).Add(oldJ, delta), lens, true, nil
}

// prefixView returns a read-only view of t's first n rows, sharing the
// row storage (sound because session tables are never appended to after
// materialization).  The view has its own index cache.
func prefixView(t *Table, n int) *Table {
	return &Table{width: t.width, n: n, dom: t.dom, flat: t.flat[:n*t.width], ar: t.ar}
}

// suffixView returns a read-only view of t's rows from row `from` on,
// sharing the row storage.  Views inherit the parent's arena so their
// prefix indexes are chunk-backed too (an advance runs under the
// session pin, so the chunks outlive every view built on them).
func suffixView(t *Table, from int) *Table {
	return &Table{width: t.width, n: t.n - from, dom: t.dom, flat: t.flat[from*t.width:], ar: t.ar}
}
