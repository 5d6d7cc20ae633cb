package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/workload"
)

// The five query classes of the repository benchmark's cold-exec
// workload — two quantified (Materialize_Predicate*), three
// quantifier-free joins (ColdExec_*) — on a structure drawn with its
// pinned generator parameters (RandomStructure(EdgeSig, 120, 8/120,
// 20160626)), through core.Counter as the server counts them.  The
// session is released before every iteration, as cold-exec's round-robin
// over more structures than the session LRU holds does, so each count
// re-materializes its tables and ∃-component predicate tables.

func benchPredicateCold(b *testing.B, src string) {
	b.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.NewCounter(q, workload.EdgeSig(), count.EngineFPT)
	if err != nil {
		b.Fatal(err)
	}
	bs := workload.RandomStructure(workload.EdgeSig(), 120, 8.0/120, 20160626)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.ReleaseSession(bs)
		if _, err := c.Count(bs); err != nil {
			b.Fatal(err)
		}
	}
}

// One predicate on {s,t} whose quantified part is a path of two
// variables.
func BenchmarkMaterialize_PredicatePath3_N120(b *testing.B) {
	benchPredicateCold(b, "p(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)")
}

// Four disjuncts, two of them quantified: nine φ⁻af plans that between
// them need two distinct predicates, ∃z.E(x,z)∧E(z,y) and its converse.
func BenchmarkMaterialize_PredicateUnion_N120(b *testing.B) {
	benchPredicateCold(b, "u(x,y) := E(x,y) | (exists z. E(x,z) & E(z,y)) | E(y,x) | (exists w. E(y,w) & E(w,x))")
}

func BenchmarkColdExec_Tri_N120(b *testing.B) {
	benchPredicateCold(b, "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)")
}

func BenchmarkColdExec_C4_N120(b *testing.B) {
	benchPredicateCold(b, "c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)")
}

func BenchmarkColdExec_FPath3_N120(b *testing.B) {
	benchPredicateCold(b, "fp3(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)")
}
