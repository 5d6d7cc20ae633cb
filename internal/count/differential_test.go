package count

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// reinsertShuffled rebuilds b with the same universe but the tuples of
// every relation inserted in a random order: the columnar store's
// posting lists, packed sets, and row ids all come out differently, but
// every count must be unchanged.
func reinsertShuffled(b *structure.Structure, rng *rand.Rand) *structure.Structure {
	out := structure.New(b.Signature())
	for _, name := range b.ElemNames() {
		out.EnsureElem(name)
	}
	for _, r := range b.Signature().Rels() {
		var tuples [][]int
		b.ForEachTuple(r.Name, func(t []int) bool {
			tuples = append(tuples, append([]int(nil), t...))
			return true
		})
		rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
		for _, t := range tuples {
			_ = out.AddTuple(r.Name, t...)
		}
	}
	return out
}

// Differential property: the indexed/columnar counting paths (posting
// lists in the hom solver, packed-set materialization, semi-join
// pruning) must agree with the full-scan brute-force reference
// (EPDirect evaluates the satisfaction semantics with set-membership
// lookups only), and all counts must be invariant under tuple insertion
// order.
func TestIndexedCountsMatchBruteForceAndInsertionOrder(t *testing.T) {
	sig := workload.EdgeSig()
	queries := []string{
		"q(x,y) := E(x,y)",
		"q(a,b,c) := E(a,b) & E(b,c)",
		"q(x) := exists u, v. E(x,u) & E(u,v)",
		"q(x,y) := E(x,y) & E(y,x)",
		"q(a,b,c,d) := E(a,b) & E(c,d)",
		"q(x) := E(x,x) & (exists s, t. E(s,t) & E(t,s))",
	}
	counters := map[string]func(pp.PP, *structure.Structure) (*big.Int, error){"engine": engine.CountOnce, "union": unionRef}
	rng := rand.New(rand.NewSource(99))
	for seed := int64(0); seed < 8; seed++ {
		b := workload.RandomStructure(sig, 5, 0.35, seed)
		shuffled := reinsertShuffled(b, rng)
		if !structure.Equal(b, shuffled) {
			t.Fatalf("seed %d: shuffled reinsertion changed the structure", seed)
		}
		for _, src := range queries {
			q := parser.MustQuery(src)
			want, err := EPDirect(q, b)
			if err != nil {
				t.Fatal(err)
			}
			p, err := pp.FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
			if err != nil {
				t.Fatal(err)
			}
			for name, count := range counters {
				for which, bs := range []*structure.Structure{b, shuffled} {
					got, err := count(p, bs)
					if err != nil {
						t.Fatal(err)
					}
					if got.Cmp(want) != 0 {
						t.Fatalf("seed %d, query %q, %s, structure %d: got %v, brute-force %v",
							seed, src, name, which, got, want)
					}
				}
			}
		}
	}
}

// Differential property for the join-count executor, driven through a
// compiled engine plan and an explicit session: the DP must agree with
// the EPDirect brute-force reference on randomized formulas and
// structures, whatever order the tuples were inserted in.
func TestExecutorMatchesBruteForceUnderReinsertion(t *testing.T) {
	sig := workload.EdgeSig()
	queries := []string{
		"q(a,b,c) := E(a,b) & E(b,c)",
		"q(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)",
		"q(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"q(x) := exists u, v. E(x,u) & E(u,v)",
		"q(a,b,c,d) := E(a,b) & E(c,d)",
		"q(x,y) := E(x,y) & E(y,x) & (exists s, u. E(s,u) & E(u,s))",
	}
	rng := rand.New(rand.NewSource(3))
	for seed := int64(0); seed < 8; seed++ {
		b := workload.RandomStructure(sig, 5, 0.3+0.05*float64(seed%3), seed)
		shuffled := reinsertShuffled(b, rng)
		for _, src := range queries {
			q := parser.MustQuery(src)
			want, err := EPDirect(q, b)
			if err != nil {
				t.Fatal(err)
			}
			p, err := pp.FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
			if err != nil {
				t.Fatal(err)
			}
			pl, err := engine.Compile(p, engine.FPT)
			if err != nil {
				t.Fatal(err)
			}
			for which, bs := range []*structure.Structure{b, shuffled} {
				got, err := pl.CountIn(context.Background(), engine.SessionFor(bs))
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("seed %d, query %q, structure %d: got %v, brute-force %v",
						seed, src, which, got, want)
				}
			}
		}
	}
}

// The executor must stay exact through the big.Int overflow fallback:
// counting homomorphisms of a path into a large complete graph with
// loops exceeds int64 inside the DP (hom(P_12, K_41^loop) = 41^13, the
// closed form computed in big.Int).
func TestExecutorCountsThroughOverflow(t *testing.T) {
	const n, edges = 41, 12
	b := structure.New(workload.EdgeSig())
	for i := 0; i < n; i++ {
		b.EnsureElem(workload.EdgeSig().Rels()[0].Name + "_" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if err := b.AddTuple("E", i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := structure.New(workload.EdgeSig())
	all := make([]int, edges+1)
	for i := range all {
		a.EnsureElem("x" + string(rune('a'+i)))
		all[i] = i
	}
	for i := 0; i < edges; i++ {
		if err := a.AddTuple("E", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	p, err := pp.New(structure.AtomsOf(a), all)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := engine.Compile(p, engine.FPT)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.CountIn(context.Background(), engine.SessionFor(b))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(big.NewInt(n), big.NewInt(edges+1), nil)
	if got.Cmp(want) != 0 {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got.IsInt64() {
		t.Fatal("instance too small to force the big.Int fallback")
	}
}

// Same property on a mixed-arity signature, where the packed tuple sets
// exercise different per-value bit budgets per relation.
func TestIndexedCountsInsertionOrderMixedArity(t *testing.T) {
	sig := structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "R", Arity: 3},
		structure.RelSym{Name: "F", Arity: 1},
	)
	queries := []string{
		"q(x,y) := exists z. R(x,y,z) & F(z)",
		"q(a) := F(a) & (exists u. E(a,u))",
		"q(x,y,z) := R(x,y,z) & E(y,z)",
	}
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 6; seed++ {
		b := workload.RandomStructure(sig, 4, 0.3, seed)
		shuffled := reinsertShuffled(b, rng)
		for _, src := range queries {
			q := parser.MustQuery(src)
			want, err := EPDirect(q, b)
			if err != nil {
				t.Fatal(err)
			}
			p, err := pp.FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
			if err != nil {
				t.Fatal(err)
			}
			for which, bs := range []*structure.Structure{b, shuffled} {
				got, err := engine.CountOnce(p, bs)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("seed %d, query %q, structure %d: got %v, brute-force %v",
						seed, src, which, got, want)
				}
			}
		}
	}
}
