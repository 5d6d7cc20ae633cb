package engine

import (
	"slices"

	"repro/internal/bitvec"
)

// Semi-join pre-pruning: before the join-count DP runs, each constraint
// table is reduced against the value supports of every other constraint
// sharing one of its variables (the bags adjacent in the decomposition
// all draw from these same tables).  A row whose value at some variable
// appears in no other covering constraint can contribute to no complete
// assignment, so dropping it leaves every count unchanged while
// shrinking the intermediate tables the DP joins and groups — and the
// prefix indexes the bound plan builds over them.
//
// The pass works entirely in word bitmaps (internal/bitvec), one pass over
// a table's two layouts.  Supports and per-variable allowed sets are value
// bitmaps intersected 64 values per word op.  What survives of a table is
// kept in its own layout.  A table on rows (Table.rows) is its bit matrix,
// its rows the table's stride apart (a store view's can be wider than
// ⌈|B|/64⌉ words), copied at its first kill: column 0's support is the
// set of non-empty rows, column 1's the OR of the rows, and killing
// clears the rows whose value is not allowed and ANDs the others with the
// allowed set — a round is O(|B|·⌈|B|/64⌉) words whatever the table
// holds.  Any other table is an alive mask over its tuples (bit r = row r
// survives).  The session-shared input tables are never mutated; the
// survivors are compacted once, at the end, into fresh tables of the same
// layout.
//
// There is one strategy, a bounded scanning fixpoint: each round
// rebuilds the per-variable allowed sets from the live rows and kills
// the rows left unsupported, up to pruneMaxRounds rounds.  Tuple
// filtering is column-major and delta-driven — allowed sets only shrink,
// so a surviving tuple is only rechecked at columns whose variable
// shrank in the latest rebuild, and dead 64-row blocks are skipped in
// one test.  Memory is O(nActive·|B|/64) words plus the row copies.  The
// pass is sound at every round, not only at the fixpoint: a cascade
// deeper than the cap leaves rows the DP then discards itself, at the
// same count.

// pruneMinRows skips the pass when every table is tiny: the DP on such
// inputs is cheaper than even one filtering round.
const pruneMinRows = 32

// pruneMaxRounds caps the fixpoint iteration; each extra round only
// helps when the previous round newly emptied some support.
const pruneMaxRounds = 4

// semiJoinPrune returns tables with unsupported rows removed, and
// whether some table became empty (in which case the component's join
// count is zero and the returned tables are meaningless).  The input
// slice and its tables are not modified.
func semiJoinPrune(pc *planComponent, tables []*Table, domSize int) ([]*Table, bool) {
	if len(pc.constraints) < 2 || domSize <= 0 {
		return tables, false
	}
	biggest := 0
	for _, t := range tables {
		if t.Len() > biggest {
			if biggest = t.Len(); biggest >= pruneMinRows {
				break
			}
		}
	}
	if biggest < pruneMinRows {
		return tables, false
	}

	// Per table, what is alive: its rows (onRows; the table's own until
	// the first kill, then a copy the pass owns), or a mask over its
	// tuples, all-ones to start (bits past n stay 0 so whole-word scans
	// never visit phantom rows).
	k := len(tables)
	words := (domSize + 63) / 64
	alive := make([][]uint64, k)
	onRows, owned := make([]bool, k), make([]bool, k)
	liveN := make([]int, k)
	for ci, t := range tables {
		if t.n == 0 {
			return nil, true // empty constraint table: the join is zero
		}
		liveN[ci] = t.n
		if m := t.rows(0); m != nil {
			alive[ci], onRows[ci] = m, true
			continue
		}
		m := make([]uint64, (t.n+63)/64)
		for i := range m {
			m[i] = ^uint64(0)
		}
		m[len(m)-1] >>= uint(-t.n) & 63
		alive[ci] = m
	}

	nv := pc.nActive
	allowed := make([]uint64, nv*words)
	prev := make([]uint64, nv*words)
	varChanged := make([]bool, nv)
	support := make([]uint64, words)
	allowedOf := func(v int) []uint64 { return allowed[v*words : (v+1)*words] }

	pruned := false
	for round := 0; round < pruneMaxRounds; round++ {
		for i := range allowed {
			allowed[i] = ^uint64(0)
		}
		for ci, t := range tables {
			m, scope := alive[ci], pc.constraints[ci].scope
			if onRows[ci] {
				clear(support)
				a0 := allowedOf(scope[0])
				for u := 0; u < domSize; u++ {
					if !bitvec.Or(support, m[u*t.stride:]) {
						a0[u>>6] &^= 1 << (u & 63)
					}
				}
				bitvec.And(allowedOf(scope[1]), support)
				continue
			}
			for j, v := range scope {
				clear(support)
				for r := range bitvec.Each(m) {
					u := int(t.flat[r*t.width+j])
					support[u>>6] |= 1 << (u & 63)
				}
				bitvec.And(allowedOf(v), support)
			}
		}
		for v := 0; v < nv; v++ {
			varChanged[v] = round == 0 || !slices.Equal(allowedOf(v), prev[v*words:(v+1)*words])
		}
		copy(prev, allowed)
		changed := false
		for ci, t := range tables {
			m, scope := alive[ci], pc.constraints[ci].scope
			if onRows[ci] {
				if !varChanged[scope[0]] && !varChanged[scope[1]] {
					continue
				}
				// A row's bits are all allowed as of the round before: only a
				// shrunken allowed set can kill some.
				a0, a1 := allowedOf(scope[0]), allowedOf(scope[1])
				for u := 0; u < domSize; u++ {
					row, keep, dead := m[u*t.stride:][:words], a0[u>>6]>>(u&63)&1 != 0, 0
					switch {
					case keep && varChanged[scope[1]]:
						dead = bitvec.CountAndNot(row, a1)
					case !keep && varChanged[scope[0]]:
						dead = bitvec.Count(row)
					}
					if dead == 0 {
						continue
					}
					if !owned[ci] { // the first kill copies the table's rows
						c := make([]uint64, domSize*t.stride)
						copy(c, m)
						m, row = c, c[u*t.stride:][:words]
						alive[ci], owned[ci] = c, true
					}
					if keep {
						bitvec.And(row, a1)
					} else {
						clear(row)
					}
					liveN[ci] -= dead
					changed = true
				}
			} else {
				w := t.width
				for j, v := range scope {
					if !varChanged[v] {
						continue
					}
					ab := allowedOf(v)
					for r := range bitvec.Each(m) { // Each holds a copy of the word it is in
						if u := int(t.flat[r*w+j]); ab[u>>6]&(1<<(u&63)) == 0 {
							m[r>>6] &^= 1 << (r & 63)
							liveN[ci]--
							changed = true
						}
					}
				}
			}
			if liveN[ci] == 0 {
				return nil, true
			}
		}
		if !changed {
			break
		}
		pruned = true
	}
	if !pruned {
		return tables, false
	}
	// Compact once at the end: a table on rows keeps its surviving rows;
	// each other shrunken table gets an exactly sized slice and a single
	// masked copy pass.
	out := append([]*Table(nil), tables...)
	for ci, t := range tables {
		if liveN[ci] == t.n {
			continue
		}
		if onRows[ci] {
			out[ci] = rowsTable(alive[ci], t.stride, t.dom)
			continue
		}
		nt := newTable(t.width, t.dom)
		dst := make([]int32, liveN[ci]*t.width)
		o := 0
		for r := range bitvec.Each(alive[ci]) {
			copy(dst[o:o+t.width], t.flat[r*t.width:(r+1)*t.width])
			o += t.width
		}
		nt.flat = dst
		nt.n = liveN[ci]
		out[ci] = nt
	}
	return out, false
}
