// Benchmarks: timing probes for the paper's worked examples and
// theorems, one family per claim.  The claims themselves
// are asserted by the TestPaper* tests of the packages that own them
// (go test -run Paper -v . ./internal/...); these benches only time them.
package epcq_test

import (
	"context"
	"math/big"
	"testing"

	epcq "repro"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/graph"
	"repro/internal/ie"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/tw"
	"repro/internal/workload"
)

func mustCompile(b *testing.B, src string) *eptrans.Compiled {
	b.Helper()
	q := parser.MustQuery(src)
	sig, err := eptrans.InferStructSignature(q)
	if err != nil {
		b.Fatal(err)
	}
	c, err := eptrans.Compile(q, sig)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func fptCounter(p pp.PP, s *structure.Structure) (*big.Int, error) {
	return engine.CountOnce(p, s)
}

// --- E1: Example 4.1 -----------------------------------------------------

func BenchmarkE1_Example41_Pipeline(b *testing.B) {
	c := mustCompile(b, "phi(w,x,y,z) := E(x,y) & (E(w,x) | E(y,z) & E(z,z))")
	bs := workload.RandomStructure(workload.EdgeSig(), 12, 0.3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eptrans.CountEPViaPP(c, bs, fptCounter); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_Example41_DirectEnumeration(b *testing.B) {
	q := parser.MustQuery("phi(w,x,y,z) := E(x,y) & (E(w,x) | E(y,z) & E(z,z))")
	bs := workload.RandomStructure(workload.EdgeSig(), 12, 0.3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := count.EPDirect(q, bs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: Example 4.2 cancellation ---------------------------------------

func example42Terms(b *testing.B) (raw, merged []ie.Term) {
	b.Helper()
	lib := []epcq.Var{"w", "x", "y", "z"}
	var ds []pp.PP
	for _, src := range []string{
		"p(w,x,y,z) := E(x,y) & E(y,z)",
		"p(w,x,y,z) := E(z,w) & E(w,x)",
		"p(w,x,y,z) := E(w,x) & E(x,y)",
	} {
		q := parser.MustQuery(src)
		p, err := pp.FromDisjunct(workload.EdgeSig(), lib, q.Disjuncts()[0])
		if err != nil {
			b.Fatal(err)
		}
		ds = append(ds, p)
	}
	raw, err := ie.RawTerms(ds)
	if err != nil {
		b.Fatal(err)
	}
	merged, err = ie.Merge(raw)
	if err != nil {
		b.Fatal(err)
	}
	return raw, merged
}

func BenchmarkE2_Cancellation_RawTerms(b *testing.B) {
	raw, _ := example42Terms(b)
	bs := workload.RandomStructure(workload.EdgeSig(), 10, 0.3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ie.Count(raw, bs, fptCounter); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_Cancellation_MergedTerms(b *testing.B) {
	_, merged := example42Terms(b)
	bs := workload.RandomStructure(workload.EdgeSig(), 10, 0.3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ie.Count(merged, bs, fptCounter); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_Cancellation_BuildPhiStar(b *testing.B) {
	lib := []epcq.Var{"w", "x", "y", "z"}
	var ds []pp.PP
	for _, src := range []string{
		"p(w,x,y,z) := E(x,y) & E(y,z)",
		"p(w,x,y,z) := E(z,w) & E(w,x)",
		"p(w,x,y,z) := E(w,x) & E(x,y)",
	} {
		q := parser.MustQuery(src)
		p, _ := pp.FromDisjunct(workload.EdgeSig(), lib, q.Disjuncts()[0])
		ds = append(ds, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ie.PhiStar(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: Example 4.3 Vandermonde recovery --------------------------------

func BenchmarkE3_Vandermonde_BackwardReduction(b *testing.B) {
	c := mustCompile(b, "phi(w,x,y,z) := E(x,y) & (E(w,x) | E(y,z) & E(z,z))")
	bs := workload.RandomStructure(workload.EdgeSig(), 3, 0.45, 3)
	oracle := func(y *structure.Structure) (*big.Int, error) {
		return eptrans.CountEPViaPP(c, y, fptCounter)
	}
	psi := c.Plus[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eptrans.CountPPViaEP(c, psi, bs, oracle); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4/E5: equivalence decisions ----------------------------------------

func BenchmarkE4_CountingEquiv_Decide(b *testing.B) {
	lib := []epcq.Var{"a", "b"}
	q1 := parser.MustQuery("p(a,b) := exists m. E(a,m) & E(m,b)")
	q2 := parser.MustQuery("p(a,b) := exists u. E(b,u) & E(u,a)")
	p1, _ := pp.FromDisjunct(workload.EdgeSig(), lib, q1.Disjuncts()[0])
	p2, _ := pp.FromDisjunct(workload.EdgeSig(), lib, q2.Disjuncts()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pp.CountingEquivalent(p1, p2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_SemiCountingEquiv_Decide(b *testing.B) {
	sig := structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "F", Arity: 1},
	)
	lib := []epcq.Var{"x", "y"}
	q1 := parser.MustQuery("p(x,y) := E(x,y)")
	q2 := parser.MustQuery("p(x,y) := exists z. E(x,y) & F(z)")
	p1, _ := pp.FromDisjunct(sig, lib, q1.Disjuncts()[0])
	p2, _ := pp.FromDisjunct(sig, lib, q2.Disjuncts()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pp.SemiCountingEquivalent(p1, p2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: FPT scaling ------------------------------------------------------

func benchPathOnER(b *testing.B, n int) {
	b.Helper()
	q := workload.PathQuery(4)
	ds := q.Disjuncts()
	p, err := pp.FromDisjunct(workload.EdgeSig(), q.Lib, ds[0])
	if err != nil {
		b.Fatal(err)
	}
	pl, err := engine.Compile(p, engine.FPT)
	if err != nil {
		b.Fatal(err)
	}
	g := workload.ER(n, 4.0/float64(n), int64(n))
	bs := workload.GraphStructure(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.CountIn(context.Background(), engine.SessionFor(bs)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_FPTScaling_FPT_N40(b *testing.B)  { benchPathOnER(b, 40) }
func BenchmarkE6_FPTScaling_FPT_N80(b *testing.B)  { benchPathOnER(b, 80) }
func BenchmarkE6_FPTScaling_FPT_N160(b *testing.B) { benchPathOnER(b, 160) }

// --- E7: clique hardness ---------------------------------------------------

func benchCliqueCount(b *testing.B, k int) {
	b.Helper()
	g := workload.PlantedClique(20, 0.5, 6, 123)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := countCliquesViaQuery(g, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_CliqueHardness_K2(b *testing.B) { benchCliqueCount(b, 2) }
func BenchmarkE7_CliqueHardness_K3(b *testing.B) { benchCliqueCount(b, 3) }
func BenchmarkE7_CliqueHardness_K4(b *testing.B) { benchCliqueCount(b, 4) }
func BenchmarkE7_CliqueHardness_K5(b *testing.B) { benchCliqueCount(b, 5) }

func BenchmarkE7_CliqueHardness_NativeK4(b *testing.B) {
	g := workload.PlantedClique(20, 0.5, 6, 123)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CountCliques(4)
	}
}

// --- E8: interreduction end-to-end -----------------------------------------

func BenchmarkE8_EquivalenceTheorem_Forward(b *testing.B) {
	c := mustCompile(b, `th(w,x,y,z) := E(x,y) & E(y,z)
		| E(z,w) & E(w,x)
		| E(w,x) & E(x,y)
		| exists a1,b1,c1,d1. E(a1,b1) & E(b1,c1) & E(c1,d1)`)
	bs := workload.RandomStructure(workload.EdgeSig(), 8, 0.25, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eptrans.CountEPViaPP(c, bs, fptCounter); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_EquivalenceTheorem_Compile(b *testing.B) {
	q := parser.MustQuery(`th(w,x,y,z) := E(x,y) & E(y,z)
		| E(z,w) & E(w,x)
		| E(w,x) & E(x,y)
		| exists a1,b1,c1,d1. E(a1,b1) & E(b1,c1) & E(c1,d1)`)
	sig := workload.EdgeSig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eptrans.Compile(q, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: classification ------------------------------------------------------

func BenchmarkE9_Classify_PathFamily(b *testing.B) {
	q := workload.PathQuery(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := epcq.Classify(q, workload.EdgeSig(), 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9_Classify_CliqueFamily(b *testing.B) {
	q := workload.CliqueQuery(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := epcq.Classify(q, workload.EdgeSig(), 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A1: the engine on the E6 path query ----------------------------------
// (A4, the core ablation, is timed beside its claim in internal/engine.)

func BenchmarkA1_Engine_FPT(b *testing.B) { benchPathOnER(b, 60) }

// --- A5: treewidth ----------------------------------------------------------

func benchTreewidth(b *testing.B, exact bool) {
	b.Helper()
	gs := make([]*graph.Graph, 8)
	for i := range gs {
		gs[i] = workload.ER(14, 0.3, int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := gs[i%len(gs)]
		if exact {
			tw.Treewidth(g)
		} else {
			tw.HeuristicDecomposition(g)
		}
	}
}

func BenchmarkA5_Treewidth_Exact(b *testing.B)     { benchTreewidth(b, true) }
func BenchmarkA5_Treewidth_Heuristic(b *testing.B) { benchTreewidth(b, false) }

// --- public API round trip ---------------------------------------------------

func BenchmarkAPI_OneShotCount(b *testing.B) {
	q := epcq.MustParseQuery("common(a,c) := exists m. E(a,m) & E(m,c)")
	g := workload.ER(50, 0.1, 77)
	bs := workload.GraphStructure(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := epcq.Count(q, bs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPI_CompiledCount(b *testing.B) {
	q := epcq.MustParseQuery("common(a,c) := exists m. E(a,m) & E(m,c)")
	g := workload.ER(50, 0.1, 77)
	bs := workload.GraphStructure(g)
	c, err := epcq.NewCounter(q, bs.Signature())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Count(bs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- JoinCount: executor hot path on medium instances --------------------
//
// Pure #HOM workloads (every pattern variable liberal): the count is
// exactly the join-count DP over the contract-graph decomposition, so
// these benches isolate the executor — packed keys, int64 fast path,
// session-cached constraint tables.

func pathStructure(k int) *structure.Structure {
	a := structure.New(workload.EdgeSig())
	for i := 0; i <= k; i++ {
		a.EnsureElem("x" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
	}
	for i := 0; i < k; i++ {
		_ = a.AddTuple("E", i, i+1)
	}
	return a
}

func cycleStructure(k int) *structure.Structure {
	a := structure.New(workload.EdgeSig())
	for i := 0; i < k; i++ {
		a.EnsureElem("c" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
	}
	for i := 0; i < k; i++ {
		_ = a.AddTuple("E", i, (i+1)%k)
	}
	return a
}

func benchJoinCountHom(b *testing.B, pattern *structure.Structure, n int, density float64) {
	b.Helper()
	bs := workload.GraphStructure(workload.ER(n, density, int64(n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := epcq.CountHomomorphisms(pattern, bs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinCount_Path6_N120(b *testing.B) {
	benchJoinCountHom(b, pathStructure(6), 120, 4.0/120)
}
func BenchmarkJoinCount_Path10_N200(b *testing.B) {
	benchJoinCountHom(b, pathStructure(10), 200, 4.0/200)
}
func BenchmarkJoinCount_Cycle6_N120(b *testing.B) {
	benchJoinCountHom(b, cycleStructure(6), 120, 6.0/120)
}

// spiderStructure is a body vertex with legs rays of length legLen each:
// its contract-graph decomposition branches at the body, the one shape
// the path and cycle lanes lack.
func spiderStructure(legs, legLen int) *structure.Structure {
	a := structure.New(workload.EdgeSig())
	body := a.EnsureElem("b")
	for l := 0; l < legs; l++ {
		prev := body
		for i := 0; i < legLen; i++ {
			v := a.EnsureElem("s" + string(rune('a'+l)) + string(rune('0'+i)))
			_ = a.AddTuple("E", prev, v)
			prev = v
		}
	}
	return a
}

func BenchmarkJoinCount_Spider3x3_N300(b *testing.B) {
	benchJoinCountHom(b, spiderStructure(3, 3), 300, 5.0/300)
}

// --- union-heavy term dedup -----------------------------------------------
//
// Four overlapping free disjuncts (the rotations of a directed 2-path
// over cyclic liberal variables) plus a sentence disjunct: the 2⁴−1 raw
// inclusion–exclusion terms collapse to a handful of canonical cores, so
// these rows are dominated by how well the pipeline dedupes — compile
// measures the pool (raw-stage interning saves corings), count measures
// the per-session count memo on repeated/batched counting.

const unionDedupSrc = `u(w,x,y,z) := E(x,y) & E(y,z)
	| E(y,z) & E(z,w)
	| E(z,w) & E(w,x)
	| E(w,x) & E(x,y)`

func BenchmarkUnionDedup_Compile(b *testing.B) {
	q := parser.MustQuery(unionDedupSrc)
	sig := workload.EdgeSig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewCounter(q, sig, count.EngineFPT); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnionDedup_Count(b *testing.B) {
	q := parser.MustQuery(unionDedupSrc)
	c, err := core.NewCounter(q, workload.EdgeSig(), count.EngineFPT)
	if err != nil {
		b.Fatal(err)
	}
	bs := workload.GraphStructure(workload.ER(30, 0.15, 11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Count(bs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnionDedup_CountBatch8(b *testing.B) {
	q := parser.MustQuery(unionDedupSrc)
	c, err := core.NewCounter(q, workload.EdgeSig(), count.EngineFPT)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]*structure.Structure, 8)
	for i := range batch {
		batch[i] = workload.GraphStructure(workload.ER(24, 0.18, int64(100+i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CountBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// Compile plus one count per iteration, the one-shot cost of the pooled
// pipeline on a union: the expansion and interning are paid every time,
// the plans and the session's count memo are warm after the first.
func BenchmarkUnionDedup_CompileAndCount(b *testing.B) {
	q := parser.MustQuery(unionDedupSrc)
	sig := workload.EdgeSig()
	bs := workload.GraphStructure(workload.ER(24, 0.18, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.NewCounter(q, sig, count.EngineFPT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Count(bs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- batched counting -----------------------------------------------------

func BenchmarkCounter_CountBatch16(b *testing.B) {
	q := parser.MustQuery(`q(w,x,y,z) := E(x,y) & E(y,z) | E(z,w) & E(w,x) | E(x,w) & E(y,w)`)
	c, err := core.NewCounter(q, workload.EdgeSig(), count.EngineFPT)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]*structure.Structure, 16)
	for i := range batch {
		batch[i] = workload.GraphStructure(workload.ER(24, 0.2, int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CountBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
