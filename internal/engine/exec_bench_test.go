package engine

import (
	"testing"

	"repro/internal/structure"
	"repro/internal/workload"
)

// Executor-only benchmarks: joinCount and projectKeys on a plan bound
// before the timer starts, so no session lookup, materialization or prune
// is timed — only the node programs the DP runs.  The structure is the
// repository benchmark's cold-exec one (RandomStructure(EdgeSig, 120,
// 8/120, 20160626)).

// boundJoin returns the first component of src's plan bound to b's
// (pruned) tables.
func boundJoin(tb testing.TB, src string, b *structure.Structure) (*planComponent, *execPlan) {
	tb.Helper()
	pl, err := Compile(compilePP(tb, workload.EdgeSig(), src), FPT)
	if err != nil {
		tb.Fatal(err)
	}
	s, pc := NewSession(b), pl.(*fptPlan).comps[0]
	tables := make([]*Table, len(pc.constraints))
	for ci := range tables {
		tables[ci] = s.tableFor(&pc.constraints[ci], nil)
	}
	ep, empty := s.execPlanFor(pc, tables)
	if empty {
		tb.Fatalf("%s: pruned to empty", src)
	}
	return pc, ep
}

// boundPredicate returns the nested component of src's first predicate
// and its plan bound to b's pruned atom tables, as
// Session.materializePredicate binds it.
func boundPredicate(tb testing.TB, src string, b *structure.Structure) (*planConstraint, *execPlan) {
	tb.Helper()
	pl, err := Compile(compilePP(tb, workload.EdgeSig(), src), FPT)
	if err != nil {
		tb.Fatal(err)
	}
	c, s := firstPredicate(tb, pl), NewSession(b)
	tables := make([]*Table, len(c.pred.constraints))
	for i := range tables {
		tables[i] = s.tableFor(&c.pred.constraints[i], nil)
	}
	pruned, empty := semiJoinPrune(c.pred, tables, b.Size())
	if empty {
		tb.Fatalf("%s: pruned to empty", src)
	}
	return c, newExecPlan(c.pred, pruned, nil)
}

func benchEnumerateJoin(b *testing.B, src string) {
	bs := workload.RandomStructure(workload.EdgeSig(), 120, 8.0/120, 20160626)
	pc, ep := boundJoin(b, src, bs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, aborted := joinCount(pc, ep, bs.Size(), nil); aborted {
			b.Fatal("aborted")
		}
	}
}

func BenchmarkEnumerate_Tri_N120(b *testing.B) {
	benchEnumerateJoin(b, "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)")
}

func BenchmarkEnumerate_C4_N120(b *testing.B) {
	benchEnumerateJoin(b, "c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)")
}

// The predicate of cold-exec's quantified 3-path, materialized by the
// existence run.
func BenchmarkEnumerate_PredPath3_N120(b *testing.B) {
	bs := workload.RandomStructure(workload.EdgeSig(), 120, 8.0/120, 20160626)
	c, ep := boundPredicate(b, "p(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)", bs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, aborted := projectKeys(c.pred, ep, bs.Size(), c.predProj, nil); aborted {
			b.Fatal("aborted")
		}
	}
}
