package engine

import "math/bits"

// Semi-join pre-pruning: before the join-count DP runs, each constraint
// table is reduced against the value supports of every other constraint
// sharing one of its variables (the bags adjacent in the decomposition
// all draw from these same tables).  A row whose value at some variable
// appears in no other covering constraint can contribute to no complete
// assignment, so dropping it leaves every count unchanged while
// shrinking the intermediate tables the DP joins and groups — and the
// prefix indexes the bound plan builds over them.
//
// The pass works entirely in word bitmaps: each table carries an alive
// mask (bit r = row r survives), supports and per-variable allowed sets
// are value bitmaps intersected 64 values per word op.  Rows are never
// copied between rounds — the session-shared input tables are never
// mutated, and the surviving rows are compacted into fresh (arena-
// backed, exactly sized) tables once, at the end.
//
// There is one strategy, a bounded scanning fixpoint: each round
// rebuilds the per-variable allowed sets from the live rows and kills
// the rows left unsupported, up to pruneMaxRounds rounds.  Filtering is
// column-major and delta-driven — allowed sets only shrink, so a
// surviving row is only rechecked at columns whose variable shrank in
// the latest rebuild, and dead 64-row blocks are skipped in one test.
// Memory is O(nActive·|B|/64) words whatever the tables hold.  The
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

	// Per-table alive row masks, all-ones to start (bits past n stay 0
	// so whole-word scans never visit phantom rows).
	k := len(tables)
	alive := make([][]uint64, k)
	liveN := make([]int, k)
	for ci, t := range tables {
		if t.n == 0 {
			return nil, true // empty constraint table: the join is zero
		}
		rw := (t.n + 63) / 64
		m := make([]uint64, rw)
		for i := range m {
			m[i] = ^uint64(0)
		}
		if t.n&63 != 0 {
			m[rw-1] = 1<<(uint(t.n)&63) - 1
		}
		alive[ci] = m
		liveN[ci] = t.n
	}

	words := (domSize + 63) / 64
	nv := pc.nActive
	allowed := make([]uint64, nv*words)
	prev := make([]uint64, nv*words)
	varChanged := make([]bool, nv)
	support := make([]uint64, words)

	pruned := false
	for round := 0; round < pruneMaxRounds; round++ {
		for i := range allowed {
			allowed[i] = ^uint64(0)
		}
		for ci, t := range tables {
			m := alive[ci]
			for j, v := range pc.constraints[ci].scope {
				for i := range support {
					support[i] = 0
				}
				for wi, w := range m {
					if w == 0 {
						continue // 64 dead rows skipped in one test
					}
					base := wi << 6
					for w != 0 {
						r := base + bits.TrailingZeros64(w)
						w &= w - 1
						u := int(t.flat[r*t.width+j])
						support[u>>6] |= 1 << (u & 63)
					}
				}
				ab := allowed[v*words : (v+1)*words]
				for i := range ab {
					ab[i] &= support[i]
				}
			}
		}
		for v := 0; v < nv; v++ {
			if round == 0 {
				varChanged[v] = true
				continue
			}
			varChanged[v] = false
			ab, pb := allowed[v*words:(v+1)*words], prev[v*words:(v+1)*words]
			for i := range ab {
				if ab[i] != pb[i] {
					varChanged[v] = true
					break
				}
			}
		}
		copy(prev, allowed)
		changed := false
		for ci, t := range tables {
			m := alive[ci]
			w := t.width
			for j, v := range pc.constraints[ci].scope {
				if !varChanged[v] {
					continue
				}
				ab := allowed[v*words : (v+1)*words]
				for wi, mw := range m {
					if mw == 0 {
						continue
					}
					base := wi << 6
					for rem := mw; rem != 0; rem &= rem - 1 {
						r := base + bits.TrailingZeros64(rem)
						u := int(t.flat[r*w+j])
						if ab[u>>6]&(1<<(u&63)) != 0 {
							continue
						}
						m[wi] &^= rem & -rem
						liveN[ci]--
						changed = true
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
	// Compact once at the end: each shrunken table gets an exactly
	// sized arena allocation and a single masked copy pass.
	out := append([]*Table(nil), tables...)
	for ci, t := range tables {
		if liveN[ci] == t.n {
			continue
		}
		nt := newTable(t.width, t.dom, t.ar)
		dst := t.ar.allocI32(liveN[ci] * t.width)
		o := 0
		for wi, mw := range alive[ci] {
			base := wi << 6
			for ; mw != 0; mw &= mw - 1 {
				r := base + bits.TrailingZeros64(mw)
				copy(dst[o:o+t.width], t.flat[r*t.width:(r+1)*t.width])
				o += t.width
			}
		}
		nt.flat = dst
		nt.n = liveN[ci]
		out[ci] = nt
	}
	return out, false
}
