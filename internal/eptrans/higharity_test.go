package eptrans_test

import (
	"testing"

	"repro/internal/count"
	"repro/internal/engine"
	. "repro/internal/eptrans"
	"repro/internal/parser"
	. "repro/internal/reduce"
	"repro/internal/structure"
	"repro/internal/workload"
)

// The paper's conclusion notes the equivalence theorem does not need the
// bounded-arity assumption (it only enters through the pp-trichotomy).
// These tests run the full pipeline over a ternary signature.

func ternarySig() *structure.Signature {
	return structure.MustSignature(
		structure.RelSym{Name: "R", Arity: 3},
		structure.RelSym{Name: "P", Arity: 1},
	)
}

func TestForwardReductionTernary(t *testing.T) {
	queries := []string{
		"q(x,y) := exists z. R(x,y,z) | exists z. R(z,x,y)",
		"q(x) := P(x) | exists a, b. R(x,a,b) & P(a)",
		"q(x,y) := R(x,y,y) | R(y,x,x) | P(x) & P(y)",
		"q(x) := P(x) & (exists a. R(a,a,a)) | R(x,x,x)",
	}
	sig := ternarySig()
	for _, src := range queries {
		c := compile2(t, src, sig)
		for seed := int64(0); seed < 5; seed++ {
			b := workload.RandomStructure(sig, 3, 0.3, seed)
			want, err := count.EPDirect(c.Query, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CountEPViaPP(c, b, fptCounter)
			if err != nil {
				t.Fatalf("%s seed %d: %v", src, seed, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s seed %d: forward %v != direct %v", src, seed, got, want)
			}
		}
	}
}

func TestBackwardReductionTernary(t *testing.T) {
	sig := ternarySig()
	c := compile2(t, "q(x,y) := exists z. R(x,y,z) | exists z. R(z,x,y)", sig)
	oracle := epOracleFor(c)
	for seed := int64(0); seed < 3; seed++ {
		b := workload.RandomStructure(sig, 3, 0.35, 40+seed)
		for pi, psi := range c.Plus {
			want, err := engine.CountOnce(psi, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CountPPViaEP(c, psi, b, oracle)
			if err != nil {
				t.Fatalf("ψ#%d seed %d: %v", pi, seed, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("ψ#%d seed %d: backward %v != direct %v", pi, seed, got, want)
			}
		}
	}
}

func TestTernarySentenceDisjunct(t *testing.T) {
	sig := ternarySig()
	c := compile2(t, "q(x) := R(x,x,x) | exists a, b. R(a,b,a)", sig)
	if len(c.Sentences) != 1 {
		t.Fatalf("sentences = %d, want 1", len(c.Sentences))
	}
	oracle := epOracleFor(c)
	// Structure where the sentence holds.
	withPattern := workload.RandomStructure(sig, 2, 0, 1)
	_ = withPattern.AddTuple("R", 0, 1, 0)
	got, err := CountPPViaEP(c, c.Sentences[0], withPattern, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 2 { // |B|^1
		t.Fatalf("sentence count = %v, want 2", got)
	}
	// Structure where it fails (R(a,b,a) unsatisfiable).
	without := workload.RandomStructure(sig, 2, 0, 1)
	_ = without.AddTuple("R", 0, 1, 1)
	got, err = CountPPViaEP(c, c.Sentences[0], without, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatalf("sentence count = %v, want 0", got)
	}
}

func compile2(t *testing.T, src string, sig *structure.Signature) *Compiled {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, sig)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
