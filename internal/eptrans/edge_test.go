package eptrans_test

import (
	"math/big"
	"testing"

	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/pp"
	. "repro/internal/reduce"
	"repro/internal/workload"
)

// A query whose disjuncts are all sentences (with liberal variables):
// the count is |B|^|lib| or 0.
func TestAllSentenceQuery(t *testing.T) {
	// 2-cycle vs 3-cycle sentences: neither entails the other (directed
	// cycles only map onto cycles of dividing length), so both survive
	// normalization.  (A loop sentence ∃u.E(u,u) would entail EVERY
	// E-sentence — its structure maps anywhere a loop maps — and collapse
	// the union; see TestNormalizationDropsFreeDisjunctEntailingSentence.)
	c := compile(t, "q(x,y) := (exists a, b. E(a,b) & E(b,a)) | (exists p, r, s. E(p,r) & E(r,s) & E(s,p))")
	if len(c.Free) != 0 || len(c.Star) != 0 || len(c.Minus) != 0 {
		t.Fatalf("all-sentence query: free=%d star=%d minus=%d", len(c.Free), len(c.Star), len(c.Minus))
	}
	if len(c.Plus) != 2 {
		t.Fatalf("φ⁺ = %d, want 2 sentences", len(c.Plus))
	}
	withLoop := parser.MustStructure("E(1,1). E(1,2). E(2,3).", edgeSig())
	got, err := CountEPViaPP(c, withLoop, fptCounter)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(9)) != 0 {
		t.Fatalf("count = %v, want 9", got)
	}
	noPattern := parser.MustStructure("E(1,2). E(2,3).", edgeSig())
	got, err = CountEPViaPP(c, noPattern, fptCounter)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatalf("count = %v, want 0", got)
	}
	// Cross-check against direct evaluation.
	want, err := count.EPDirect(c.Query, withLoop)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cmp(big.NewInt(9)) != 0 {
		t.Fatalf("direct = %v, want 9", want)
	}
}

// Two homomorphically equivalent sentence disjuncts: normalization must
// keep exactly one.
func TestNormalizationMergesEquivalentSentences(t *testing.T) {
	c := compile(t, "q(x) := (exists u, v. E(u,v)) | (exists a, b, z. E(a,b))")
	if len(c.Sentences) != 1 {
		t.Fatalf("sentences = %d, want 1 after normalization", len(c.Sentences))
	}
}

// A sentence disjunct entailed by a free disjunct: the free disjunct is
// dropped (its answers are subsumed whenever the sentence holds... more
// precisely, it entails the sentence, so minimization removes it).
func TestNormalizationDropsFreeDisjunctEntailingSentence(t *testing.T) {
	// E(x,x) entails ∃u.E(u,u).
	c := compile(t, "q(x) := E(x,x) | exists u. E(u,u)")
	if len(c.Disjuncts) != 1 {
		t.Fatalf("disjuncts = %d, want 1", len(c.Disjuncts))
	}
	if !c.Disjuncts[0].IsSentence() {
		t.Fatal("the sentence should survive")
	}
	// Counting still matches the direct semantics.
	for seed := int64(0); seed < 4; seed++ {
		b := workload.RandomStructure(edgeSig(), 3, 0.4, seed)
		want, err := count.EPDirect(c.Query, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CountEPViaPP(c, b, fptCounter)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: %v != %v", seed, got, want)
		}
	}
}

func TestDistinguishSetSingleton(t *testing.T) {
	q := parser.MustQuery("p(x,y) := E(x,y)")
	p, err := pp.FromDisjunct(edgeSig(), q.Lib, q.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	c, err := DistinguishSet([]pp.PP{p})
	if err != nil {
		t.Fatal(err)
	}
	v, err := engine.CountOnce(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Sign() <= 0 {
		t.Fatal("count must be positive on the distinguisher")
	}
	if !c.HasAllLoopElem() {
		t.Fatal("distinguisher must have an all-loop element")
	}
}

// The plan-based Counter path and the plain reduction agree (exercised
// here at the eptrans level via the sentence-free Example 4.2 query).
func TestForwardReductionExample42ManyStructures(t *testing.T) {
	c := compile(t, "q(w,x,y,z) := E(x,y) & E(y,z) | E(z,w) & E(w,x) | E(w,x) & E(x,y)")
	if len(c.Star) != 2 {
		t.Fatalf("Example 4.2 star = %d, want 2", len(c.Star))
	}
	for seed := int64(0); seed < 10; seed++ {
		b := workload.RandomStructure(edgeSig(), 4, 0.35, seed)
		want, err := count.EPDirect(c.Query, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CountEPViaPP(c, b, fptCounter)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: %v != %v", seed, got, want)
		}
	}
}
