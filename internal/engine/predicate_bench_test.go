package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/structure"
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

// BenchmarkColdExec_Mix_N120 is cold-exec itself in process: its 96
// pinned structures visited round-robin, so the session LRU (64 entries)
// has evicted each structure's session before its next visit, and the
// query of each count drawn at the workload's class mix — 70 % a free
// join (triangle, 4-cycle, 3-path alike), 20 % the quantified 3-path,
// 10 % the union.
func BenchmarkColdExec_Mix_N120(b *testing.B) {
	const structs = 96
	srcs := []string{
		"tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)",
		"fp3(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)",
		"p(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)",
		"u(x,y) := E(x,y) | (exists z. E(x,z) & E(z,y)) | E(y,x) | (exists w. E(y,w) & E(w,x))",
	}
	counters := make([]*core.Counter, len(srcs))
	for i, src := range srcs {
		q, err := parser.ParseQuery(src)
		if err != nil {
			b.Fatal(err)
		}
		if counters[i], err = core.NewCounter(q, workload.EdgeSig(), count.EngineFPT); err != nil {
			b.Fatal(err)
		}
	}
	bs := make([]*structure.Structure, structs)
	for i := range bs {
		bs[i] = workload.RandomStructure(workload.EdgeSig(), 120, 8.0/120, 20160626+int64(i))
	}
	rng := rand.New(rand.NewSource(7))
	mix := make([]int, 1000) // query index per count, cycled
	for i := range mix {
		switch r := rng.Intn(10); {
		case r < 7:
			mix[i] = rng.Intn(3)
		case r < 9:
			mix[i] = 3
		default:
			mix[i] = 4
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := counters[mix[i%len(mix)]].Count(bs[i%structs]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, s := range bs {
		engine.ReleaseSession(s)
	}
}
