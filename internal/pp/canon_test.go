package pp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/structure"
)

// shuffledCopy returns the same formula with elements permuted and all
// variables renamed — counting equivalent by construction.
func shuffledCopy(t *testing.T, p PP, seed int64) PP {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := p.A.Size()
	perm := rng.Perm(n)
	// New structure with renamed, permuted elements.
	out := structure.New(p.A.Signature())
	names := make([]string, n)
	for newIdx := 0; newIdx < n; newIdx++ {
		names[newIdx] = "r" + string(rune('a'+newIdx))
	}
	old2new := make([]int, n)
	for old, newIdx := range perm {
		old2new[old] = newIdx
	}
	// Add in new order.
	for i := 0; i < n; i++ {
		if _, err := out.AddElem(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range p.A.Signature().Rels() {
		p.A.ForEachTuple(r.Name, func(tp []int) bool {
			nt := make([]int, len(tp))
			for j, v := range tp {
				nt[j] = old2new[v]
			}
			if err := out.AddTuple(r.Name, nt...); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
	var s []int
	for _, v := range p.S {
		s = append(s, old2new[v])
	}
	q, err := New(out, s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCanonicalKeyInvariantUnderShuffle(t *testing.T) {
	p := example22(t)
	k0, err := p.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		q := shuffledCopy(t, p, seed)
		k, err := q.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		if k != k0 {
			t.Fatalf("seed %d: canonical key changed under shuffle:\n%s\nvs\n%s", seed, k0, k)
		}
	}
}

func TestCanonicalKeySeparates(t *testing.T) {
	sig := edgeSig()
	lib := []logic.Var{"x", "y"}
	mk := func(atoms ...logic.Atom) PP {
		return mustPP(t, sig, lib, logic.Disjunct{Atoms: atoms})
	}
	edge := mk(atom("E", "x", "y"))
	twoCycle := mk(atom("E", "x", "y"), atom("E", "y", "x"))
	loopX := mk(atom("E", "x", "x"))
	keys := map[string]string{}
	for name, p := range map[string]PP{"edge": edge, "2cycle": twoCycle, "loopx": loopX} {
		k, err := p.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		for other, ok := range keys {
			if ok == k {
				t.Fatalf("%s and %s share a canonical key", name, other)
			}
		}
		keys[name] = k
	}
}

func TestCanonicalKeyLiberalVsQuantified(t *testing.T) {
	sig := edgeSig()
	// Same structure shape, different liberal sets, must differ:
	// E(x,y) with S={x,y} vs ∃y.E(x,y) with S={x}.
	p1 := mustPP(t, sig, []logic.Var{"x", "y"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y")}})
	p2 := mustPP(t, sig, []logic.Var{"x"}, logic.Disjunct{
		Exist: []logic.Var{"y"},
		Atoms: []logic.Atom{atom("E", "x", "y")},
	})
	k1, err := p1.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := p2.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("liberal/quantified distinction lost in canonical key")
	}
}

// Property: on cored random formulas, canonical-key equality agrees with
// the Theorem 5.4 decision procedure.
func TestCanonicalAgreesWithRenamingEquivalence(t *testing.T) {
	sig := edgeSig()
	gen := func(seed int64) PP {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(2)
		vars := make([]logic.Var, nVars)
		for i := range vars {
			vars[i] = logic.Var("v" + string(rune('0'+i)))
		}
		nAtoms := 1 + rng.Intn(3)
		var atoms []logic.Atom
		for a := 0; a < nAtoms; a++ {
			atoms = append(atoms, atom("E", vars[rng.Intn(nVars)], vars[rng.Intn(nVars)]))
		}
		nFree := 1 + rng.Intn(nVars)
		d := logic.Disjunct{Exist: vars[nFree:], Atoms: atoms}
		p, err := FromDisjunct(sig, vars[:nFree], d)
		if err != nil {
			t.Fatal(err)
		}
		c := p.Core()
		return c
	}
	f := func(s1, s2 int64) bool {
		p, q := gen(s1), gen(s2)
		if len(p.S) != len(q.S) {
			return true // sizes differ: nothing to compare
		}
		viaHom, err := CountingEquivalent(p, q)
		if err != nil {
			return false
		}
		if p.A.Size() != q.A.Size() {
			// Cored and size-distinct: cannot be equivalent.
			return !viaHom
		}
		kp, err := p.CanonicalKey()
		if err != nil {
			return false
		}
		kq, err := q.CanonicalKey()
		if err != nil {
			return false
		}
		return viaHom == (kp == kq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalKeyEmptyUniverse(t *testing.T) {
	if _, err := (PP{A: structure.New(edgeSig())}).CanonicalKey(); err == nil {
		t.Fatal("empty universe should error")
	}
}
