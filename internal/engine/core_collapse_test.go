package engine_test

import (
	"context"
	"testing"

	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/workload"
)

// coreCollapseQueries are formulas whose core is smaller than the
// formula itself.
var coreCollapseQueries = []string{
	"q(x) := exists u, v, w. E(x,u) & E(x,v) & E(x,w)",
	"q(s,t) := exists u, a, b. E(s,u) & E(u,t) & E(s,a) & E(a,b)",
	"q(x) := exists u, v. E(x,u) & E(u,v) & E(x,v) & E(x,x)",
}

func mustPP(tb testing.TB, src string) pp.PP {
	tb.Helper()
	q := parser.MustQuery(src)
	p, err := pp.FromDisjunct(workload.EdgeSig(), q.Lib, q.Disjuncts()[0])
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// Queries whose core is smaller than the query: the executor counts them
// alike with and without the core step, and as the union reference does.
func TestPaperCoreCollapse(t *testing.T) {
	// Every fifth vertex carries a loop, so the looped query has answers.
	b := workload.GraphStructure(workload.ER(40, 6.0/40, 7))
	for v := 0; v < b.Size(); v += 5 {
		if err := b.AddTuple("E", v, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range coreCollapseQueries {
		p := mustPP(t, src)
		core := p.Core()
		if core.A.Size() >= p.A.Size() {
			t.Fatalf("%s: core has %d elements, the query %d", src, core.A.Size(), p.A.Size())
		}
		want, err := count.EPUnion([]pp.PP{p}, b)
		if err != nil {
			t.Fatal(err)
		}
		cored, err := engine.Compile(p, engine.FPT)
		if err != nil {
			t.Fatal(err)
		}
		uncored, err := engine.CompileUncored(p)
		if err != nil {
			t.Fatal(err)
		}
		for name, pl := range map[string]engine.Plan{"with core": cored, "without core": uncored} {
			got, err := pl.CountIn(context.Background(), engine.NewSession(b))
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s %s: %v, union %v", src, name, got, want)
			}
		}
		t.Logf("%s: |core|/|A| = %d/%d, %v answers with and without the core", src, core.A.Size(), p.A.Size(), want)
	}
}

// A4: the core ablation, timed on the first core-collapse query.
func benchCoreAblation(b *testing.B, compile func(pp.PP) (engine.Plan, error)) {
	pl, err := compile(mustPP(b, coreCollapseQueries[0]))
	if err != nil {
		b.Fatal(err)
	}
	bs := workload.GraphStructure(workload.ER(40, 0.15, 9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.CountIn(context.Background(), engine.NewSession(bs)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA4_FPT_WithCore(b *testing.B) {
	benchCoreAblation(b, func(p pp.PP) (engine.Plan, error) { return engine.Compile(p, engine.FPT) })
}

func BenchmarkA4_FPT_WithoutCore(b *testing.B) { benchCoreAblation(b, engine.CompileUncored) }
