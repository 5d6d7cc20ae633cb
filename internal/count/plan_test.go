package count

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/engine"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// countPlan executes a compiled plan against a structure, validated
// first, in a session of its own.
func countPlan(pl engine.Plan, b *structure.Structure) (*big.Int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return pl.CountIn(context.Background(), engine.NewSession(b))
}

func TestPlanMatchesOneShot(t *testing.T) {
	sig := workload.EdgeSig()
	queries := []string{
		"q(s,t) := exists u, v. E(s,u) & E(u,v) & E(v,t)",
		"q(x) := exists u, w. E(x,u) & E(x,w)",
		"q(x,y,z) := E(x,y) & E(z,z)",
		"q(x) := E(x,x) & (exists a, b. E(a,b) & E(b,a))",
	}
	for _, src := range queries {
		q := mustParseQ(t, src)
		p, err := pp.FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.Compile(p, EngineFPT)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 8; seed++ {
			b := workload.RandomStructure(sig, 4, 0.35, seed)
			want, err := unionRef(p, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := countPlan(plan, b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s seed %d: plan %v != union %v", src, seed, got, want)
			}
		}
	}
}

func TestPlanReuseAcrossStructures(t *testing.T) {
	q := workload.PathQuery(3)
	p, err := pp.FromDisjunct(workload.EdgeSig(), q.Lib, q.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Compile(p, EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	// The same plan must serve structures of different sizes.
	for _, n := range []int{3, 6, 12} {
		g := workload.ER(n, 0.3, int64(n))
		b := workload.GraphStructure(g)
		got, err := countPlan(plan, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := unionRef(p, b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("n=%d: plan %v != union %v", n, got, want)
		}
	}
}

func TestPlanRejectsWrongSignature(t *testing.T) {
	q := workload.PathQuery(2)
	p, err := pp.FromDisjunct(workload.EdgeSig(), q.Lib, q.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Compile(p, EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	other := structure.MustSignature(structure.RelSym{Name: "F", Arity: 1})
	b := structure.New(other)
	b.EnsureElem("a")
	if _, err := countPlan(plan, b); err == nil {
		t.Fatal("plan must reject structures over a different signature")
	}
	empty := structure.New(workload.EdgeSig())
	if _, err := countPlan(plan, empty); err == nil {
		t.Fatal("plan must reject empty structures")
	}
}

func BenchmarkPlanReuse_Compiled(b *testing.B) {
	q := workload.PathQuery(4)
	p, _ := pp.FromDisjunct(workload.EdgeSig(), q.Lib, q.Disjuncts()[0])
	plan, err := engine.Compile(p, EngineFPT)
	if err != nil {
		b.Fatal(err)
	}
	bs := workload.GraphStructure(workload.ER(40, 0.1, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := countPlan(plan, bs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanReuse_OneShot(b *testing.B) {
	q := workload.PathQuery(4)
	p, _ := pp.FromDisjunct(workload.EdgeSig(), q.Lib, q.Disjuncts()[0])
	bs := workload.GraphStructure(workload.ER(40, 0.1, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.CountOnce(p, bs); err != nil {
			b.Fatal(err)
		}
	}
}
