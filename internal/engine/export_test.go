package engine

import (
	"math/big"
	"sync"

	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
)

// Test-only overrides of the executor's fixed parameters.  Each returns
// a restore function that re-installs the value seen at override time,
// so callers must not interleave override/restore pairs, and must not
// run counts on other goroutines across either call.

// ForcePackedKeyBudget overrides the packed-key bit budget: 0 routes
// every bag through the wide-bag spill path.
func ForcePackedKeyBudget(bits int) (restore func()) {
	old := packedKeyBudget
	packedKeyBudget = bits
	return func() { packedKeyBudget = old }
}

// ForceDeltaGate overrides the advance gate: batches of at most minRows
// appended tuples always advance; larger ones only while
// appended·100 ≤ maxPercent·total tuples.
func ForceDeltaGate(minRows, maxPercent int) (restore func()) {
	om, op := deltaMinRows, deltaMaxPct
	deltaMinRows, deltaMaxPct = minRows, maxPercent
	return func() { deltaMinRows, deltaMaxPct = om, op }
}

// DisableDelta makes every keyed count a full recount — the baseline
// side of the delta-vs-recount comparisons.
func DisableDelta() (restore func()) {
	old := deltaDisabled
	deltaDisabled = true
	return func() { deltaDisabled = old }
}

// RowBinds reports how many bag positions the executor has bound from
// rows (Table.rows, groupRows) since process start: a count that leaves
// it unchanged ran on the tuple path alone.
func RowBinds() int64 { return rowBinds.Load() }

// TupleLayouts reports how many predicate tables the executor has built
// as tuples since process start: a count that leaves it unchanged built
// every predicate table it needed as rows.
func TupleLayouts() int64 { return tupleLayouts.Load() }

// CompileUncored compiles p as it is, skipping the core step: the
// without-core side of the core-collapse claim.
func CompileUncored(p pp.PP) (Plan, error) { return planFrom(p, pp.ShapeOf(p)) }

// solverCount counts p's answers on b with the hom solver alone, one
// Gaifman component at a time (|φ(B)| = ∏|φᵢ(B)|, Section 2.1): the
// executor-free reference of the package's own tests.
func solverCount(p pp.PP, b *structure.Structure) *big.Int {
	total := big.NewInt(1)
	for _, c := range p.Components() {
		var n int64
		hom.ForEachExtendable(c.A, b, c.S, hom.Options{}, func([]int) bool { n++; return true })
		total.Mul(total, big.NewInt(n))
	}
	return total
}

// CachedTables reports how many constraint tables s holds materialized:
// atom tables, predicate tables and sentence verdicts alike (an aborted
// materialization leaves its entry without one).  Call it with no count
// running on s.
func CachedTables(s *Session) int {
	n := 0
	for _, e := range s.tables.All() {
		if e.t != nil {
			n++
		}
	}
	return n
}

// OpKinds names the kinds of the ops node programs are built with, in
// order, and TailModes the modes of their tails.
var (
	OpKinds   = []string{"scan", "rows", "test", "probe", "tuples", "drive", "fill", "tail"}
	TailModes = []string{"each", "any", "or", "count", "add"}
)

// CountBuilds runs f and counts the ops node programs were built with
// meanwhile, by kind, and their tails by mode and, second index, whether
// they gather.  No other test may run beside it.
func CountBuilds(f func()) (kinds []int64, tails [][2]int64) {
	kinds, tails = make([]int64, numOpKinds), make([][2]int64, numTailModes)
	var mu sync.Mutex
	onProgram = func(ops []execOp) {
		mu.Lock()
		defer mu.Unlock()
		for _, op := range ops {
			kinds[op.kind]++
			if op.kind == opTail {
				g := 0
				if op.gather != nil {
					g = 1
				}
				tails[op.mode][g]++
			}
		}
	}
	defer func() { onProgram = nil }()
	f()
	return kinds, tails
}
