package pp

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/hom"
	"repro/internal/logic"
	"repro/internal/structure"
)

// randomPP builds a small random pp-formula over {E/2}.
func randomPP(t *testing.T, seed int64) PP {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nVars := 2 + rng.Intn(3)
	vars := make([]logic.Var, nVars)
	for i := range vars {
		vars[i] = logic.Var("v" + string(rune('0'+i)))
	}
	nAtoms := 1 + rng.Intn(4)
	var atoms []logic.Atom
	for a := 0; a < nAtoms; a++ {
		atoms = append(atoms, atom("E", vars[rng.Intn(nVars)], vars[rng.Intn(nVars)]))
	}
	nFree := 1 + rng.Intn(nVars)
	p, err := FromDisjunct(edgeSig(), vars[:nFree], logic.Disjunct{Exist: vars[nFree:], Atoms: atoms})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Core must be idempotent and logically equivalent to the original.
func TestCoreIdempotentAndEquivalent(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := randomPP(t, seed)
		c1 := p.Core()
		c2 := c1.Core()
		if c2.A.Size() != c1.A.Size() {
			t.Fatalf("seed %d: core not idempotent (%d → %d)", seed, c1.A.Size(), c2.A.Size())
		}
		eq, err := LogicallyEquivalent(p, c1)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("seed %d: core not logically equivalent to original", seed)
		}
		if c1.A.Size() > p.A.Size() {
			t.Fatalf("seed %d: core grew", seed)
		}
	}
}

// Counting equivalence must be an equivalence relation on a sample.
func TestCountingEquivalenceIsEquivalenceRelation(t *testing.T) {
	var ps []PP
	for seed := int64(0); seed < 10; seed++ {
		ps = append(ps, randomPP(t, seed))
	}
	n := len(ps)
	rel := make([][]bool, n)
	for i := range rel {
		rel[i] = make([]bool, n)
		for j := range rel[i] {
			eq, err := CountingEquivalent(ps[i], ps[j])
			if err != nil {
				t.Fatal(err)
			}
			rel[i][j] = eq
		}
	}
	for i := 0; i < n; i++ {
		if !rel[i][i] {
			t.Fatalf("reflexivity fails at %d", i)
		}
		for j := 0; j < n; j++ {
			if rel[i][j] != rel[j][i] {
				t.Fatalf("symmetry fails at (%d,%d)", i, j)
			}
			for k := 0; k < n; k++ {
				if rel[i][j] && rel[j][k] && !rel[i][k] {
					t.Fatalf("transitivity fails at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

// Hat must be idempotent and preserve counts on structures where the
// original count is positive (Proposition 5.10).
func TestHatProperties(t *testing.T) {
	// φ = E(x,y) ∧ (∃u,v. E(u,v) ∧ E(v,u)) — liberal part plus a sentence
	// component.
	p := mustPP(t, edgeSig(), []logic.Var{"x", "y"}, logic.Disjunct{
		Exist: []logic.Var{"u", "v"},
		Atoms: []logic.Atom{atom("E", "x", "y"), atom("E", "u", "v"), atom("E", "v", "u")},
	})
	h, err := p.Hat()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := h.Hat()
	if err != nil {
		t.Fatal(err)
	}
	if h2.A.Size() != h.A.Size() {
		t.Fatal("Hat not idempotent")
	}
	// On a structure with a 2-cycle both formulas agree; without one, the
	// original is 0 while φ̂ may be positive (Prop 5.10's dichotomy).
	withCycle := structure.New(edgeSig())
	_ = withCycle.AddFact("E", "1", "2")
	_ = withCycle.AddFact("E", "2", "1")
	vOrig := countAnswers(t, p, withCycle)
	vHat := countAnswers(t, h, withCycle)
	if vOrig.Cmp(vHat) != 0 {
		t.Fatalf("counts differ where original positive: %v vs %v", vOrig, vHat)
	}
	noCycle := structure.New(edgeSig())
	_ = noCycle.AddFact("E", "1", "2")
	if countAnswers(t, p, noCycle).Sign() != 0 {
		t.Fatal("original should be 0 without a 2-cycle")
	}
	if countAnswers(t, h, noCycle).Sign() == 0 {
		t.Fatal("φ̂ should be positive without a 2-cycle")
	}
}

// countAnswers enumerates extendable liberal assignments directly with
// the hom engine (independent of the count package, avoiding an import
// cycle in tests).
func countAnswers(t *testing.T, p PP, b *structure.Structure) *big.Int {
	t.Helper()
	total := new(big.Int)
	one := big.NewInt(1)
	if len(p.S) == 0 {
		if hom.Exists(p.A, b, hom.Options{}) {
			return one
		}
		return total
	}
	hom.ForEachExtendable(p.A, b, p.S, hom.Options{}, func([]int) bool {
		total.Add(total, one)
		return true
	})
	return total
}

// Components multiply: |φ(B)| = ∏ |φᵢ(B)| over components.
func TestComponentFactorizationProperty(t *testing.T) {
	for seed := int64(30); seed < 50; seed++ {
		p := randomPP(t, seed)
		b := randomStructure(seed + 1000)
		whole := countAnswers(t, p, b)
		prod := big.NewInt(1)
		for _, comp := range p.Components() {
			prod.Mul(prod, countAnswers(t, comp, b))
		}
		if whole.Cmp(prod) != 0 {
			t.Fatalf("seed %d: |φ(B)| = %v but ∏ components = %v", seed, whole, prod)
		}
	}
}

func randomStructure(seed int64) *structure.Structure {
	rng := rand.New(rand.NewSource(seed))
	s := structure.New(edgeSig())
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		s.EnsureElem("e" + string(rune('0'+i)))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				_ = s.AddTuple("E", i, j)
			}
		}
	}
	return s
}

// Entailment must be reflexive and transitive on a random sample (a
// preorder), and respected by conjunction: φ∧ψ ⊨ φ.
func TestEntailmentPreorder(t *testing.T) {
	lib := []logic.Var{"x", "y"}
	mk := func(atoms ...logic.Atom) PP {
		return mustPP(t, edgeSig(), lib, logic.Disjunct{Atoms: atoms})
	}
	ps := []PP{
		mk(atom("E", "x", "y")),
		mk(atom("E", "x", "y"), atom("E", "y", "x")),
		mk(atom("E", "y", "x")),
		mk(atom("E", "x", "x")),
	}
	for i, p := range ps {
		self, err := Entails(p, p)
		if err != nil {
			t.Fatal(err)
		}
		if !self {
			t.Fatalf("reflexivity fails at %d", i)
		}
	}
	for _, p := range ps {
		for _, q := range ps {
			conj, err := Conjoin(p, q)
			if err != nil {
				t.Fatal(err)
			}
			e1, err := Entails(conj, p)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := Entails(conj, q)
			if err != nil {
				t.Fatal(err)
			}
			if !e1 || !e2 {
				t.Fatalf("conjunction must entail both conjuncts (%v, %v)", e1, e2)
			}
		}
	}
	// Transitivity on the sample.
	n := len(ps)
	ent := make([][]bool, n)
	for i := range ent {
		ent[i] = make([]bool, n)
		for j := range ent[i] {
			v, err := Entails(ps[i], ps[j])
			if err != nil {
				t.Fatal(err)
			}
			ent[i][j] = v
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if ent[i][j] && ent[j][k] && !ent[i][k] {
					t.Fatalf("transitivity fails at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}
