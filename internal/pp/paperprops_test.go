package pp

import (
	"math/big"
	"testing"

	"repro/internal/logic"
	"repro/internal/structure"
)

// Observation 5.5: on the structure C interpreting every relation by the
// full relation over {0,1}, |φ(C)| = 2^|lib(φ)| — so counting-equivalent
// formulas must have equally many liberal variables.
func TestObservation55(t *testing.T) {
	sig := edgeSig()
	full := structure.New(sig)
	full.EnsureElem("0")
	full.EnsureElem("1")
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			_ = full.AddTuple("E", a, b)
		}
	}
	cases := []struct {
		lib []logic.Var
		d   logic.Disjunct
	}{
		{[]logic.Var{"x"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "x")}}},
		{[]logic.Var{"x", "y"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y")}}},
		{[]logic.Var{"x", "y", "z"}, logic.Disjunct{
			Exist: []logic.Var{"u"},
			Atoms: []logic.Atom{atom("E", "x", "u"), atom("E", "y", "z")},
		}},
	}
	for _, c := range cases {
		p := mustPP(t, sig, c.lib, c.d)
		got := countAnswers(t, p, full)
		want := new(big.Int).Exp(big.NewInt(2), big.NewInt(int64(len(c.lib))), nil)
		if got.Cmp(want) != 0 {
			t.Fatalf("|φ(C)| = %v, want 2^%d = %v", got, len(c.lib), want)
		}
	}
}

// Proposition 5.10: for every structure B, φ(B) = ∅ or φ(B) = φ̂(B).
func TestProposition510(t *testing.T) {
	// φ = E(x,y) ∧ ∃u,v. (E(u,v) ∧ E(v,u)): liberal edge + 2-cycle sentence.
	p := mustPP(t, edgeSig(), []logic.Var{"x", "y"}, logic.Disjunct{
		Exist: []logic.Var{"u", "v"},
		Atoms: []logic.Atom{atom("E", "x", "y"), atom("E", "u", "v"), atom("E", "v", "u")},
	})
	h, err := p.Hat()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 15; seed++ {
		b := randomStructure(seed)
		vp := countAnswers(t, p, b)
		vh := countAnswers(t, h, b)
		if vp.Sign() != 0 && vp.Cmp(vh) != 0 {
			t.Fatalf("seed %d: φ(B) non-empty but |φ(B)| = %v ≠ |φ̂(B)| = %v", seed, vp, vh)
		}
	}
}

// Theorem 2.3 (Chandra–Merlin): logical equivalence iff homomorphically
// equivalent augmented structures; spot-check both directions.
func TestTheorem23(t *testing.T) {
	sig := edgeSig()
	lib := []logic.Var{"x"}
	// ∃u. E(x,u) ∧ ∃v,w. E(x,v) ∧ E(v,w): not equivalent (longer reach).
	p1 := mustPP(t, sig, lib, logic.Disjunct{
		Exist: []logic.Var{"u"},
		Atoms: []logic.Atom{atom("E", "x", "u")},
	})
	p2 := mustPP(t, sig, lib, logic.Disjunct{
		Exist: []logic.Var{"v", "w"},
		Atoms: []logic.Atom{atom("E", "x", "v"), atom("E", "v", "w")},
	})
	eq, err := LogicallyEquivalent(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("1-step and 2-step reach must differ")
	}
	// ∃u. E(x,u) ∧ ∃v,w. E(x,v) ∧ E(x,w): equivalent (w collapses to v).
	p3 := mustPP(t, sig, lib, logic.Disjunct{
		Exist: []logic.Var{"v", "w"},
		Atoms: []logic.Atom{atom("E", "x", "v"), atom("E", "x", "w")},
	})
	eq, err = LogicallyEquivalent(p1, p3)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("redundant quantified twin must be logically equivalent")
	}
	// Isomorphic cores (the theorem's second characterization).
	c1 := p1.Core()
	c3 := p3.Core()
	if c1.A.Size() != c3.A.Size() {
		t.Fatalf("equivalent formulas with non-isomorphic cores: %d vs %d", c1.A.Size(), c3.A.Size())
	}
	k1, err := c1.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	k3, err := c3.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k3 {
		t.Fatal("equivalent formulas must have identical core canonical keys")
	}
}
