package engine

import (
	"context"
	"testing"

	"repro/internal/hom"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Materialization benchmarks: a fresh Session per iteration forces the
// constraint tables to be rebuilt from the structure every time, isolating
// the structure → table path (fingerprint + projection + dedup) that the
// columnar store feeds.

func benchCompilePP(b *testing.B, sig *structure.Signature, src string) pp.PP {
	b.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pp.FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchMaterializeFresh(b *testing.B, src string, n int, avgDeg float64) {
	b.Helper()
	sig := workload.EdgeSig()
	p := benchCompilePP(b, sig, src)
	pl, err := Compile(p, FPT)
	if err != nil {
		b.Fatal(err)
	}
	bs := workload.GraphStructure(workload.ER(n, avgDeg/float64(n), int64(n)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSession(bs)
		if _, err := pl.CountIn(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// Liberal path query: every constraint is an atom table projected off E.
func BenchmarkMaterialize_Path4_N1000(b *testing.B) {
	benchMaterializeFresh(b, "q(a,b,c,d,e) := E(a,b) & E(b,c) & E(c,d) & E(d,e)", 1000, 4.0)
}

func BenchmarkMaterialize_Path4_N4000(b *testing.B) {
	benchMaterializeFresh(b, "q(a,b,c,d,e) := E(a,b) & E(b,c) & E(c,d) & E(d,e)", 4000, 4.0)
}

// Quantified tail: one ∃-component predicate table (a nested projection
// DP over a path of two quantified variables) plus atom tables, on a large
// structure.
func BenchmarkMaterialize_PredTail_N1000(b *testing.B) {
	benchMaterializeFresh(b, "q(a,b,c) := exists u, v. E(a,b) & E(b,c) & E(c,u) & E(u,v)", 1000, 3.0)
}

// A wide ∃-component on dense data: a quantified K4 hanging off one free
// variable, on ER(60, 0.5), where nearly every vertex has a witness.  This
// is the shape on which enumerating the K4 bag in full would lose to a
// solver that stops at the first witness per interface value; the nested
// run stops there too (cut in enumerate), and the solver sub-benchmark — the
// reference the differential tests compare against, hom.ForEachExtendable
// on the same component — is the yardstick that keeps it honest.
func BenchmarkMaterialize_PredicateK4_N60(b *testing.B) {
	p := benchCompilePP(b, workload.EdgeSig(),
		"q(x) := exists a, b, c, d. E(x,a) & E(a,b) & E(a,c) & E(a,d) & E(b,c) & E(b,d) & E(c,d)")
	pl, err := Compile(p, FPT)
	if err != nil {
		b.Fatal(err)
	}
	pred := firstPredicate(b, pl)
	bs := workload.GraphStructure(workload.ER(60, 0.5, 7))
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if NewSession(bs).tableFor(pred, nil).Len() == 0 {
				b.Fatal("empty predicate")
			}
		}
	})
	sub, iface := predStructure(p.A.Signature(), pred.pred), predIface(pred)
	b.Run("solver", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows := 0
			hom.ForEachExtendable(structure.AtomsOf(sub), bs, iface, hom.Options{}, func([]int) bool { rows++; return true })
			if rows == 0 {
				b.Fatal("empty predicate")
			}
		}
	})
}
