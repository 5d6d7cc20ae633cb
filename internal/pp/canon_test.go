package pp

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/structure"
	"repro/internal/workload"
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
		p.A.Database().ForEachTuple(r.Name, func(tp []int) bool {
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
	q, err := New(structure.AtomsOf(out), s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// The key is invariant under renaming: on Example 2.2 and on the
// symmetric families, whose labeling prunes by automorphisms.
func TestCanonicalKeyInvariantUnderShuffle(t *testing.T) {
	inputs := []symmetricFamily{{name: "Example 2.2", p: example22(t)}}
	for _, fam := range append(inputs, symmetricFamilies(t)...) {
		k0, err := fam.p.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 10; seed++ {
			k, err := shuffledCopy(t, fam.p, seed).CanonicalKey()
			if err != nil {
				t.Fatal(err)
			}
			if k != k0 {
				t.Fatalf("%s, seed %d: canonical key changed under shuffle:\n%s\nvs\n%s", fam.name, seed, k0, k)
			}
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
// brute-force renaming equivalence (Definition 5.3), which Theorem 5.4
// makes counting equivalence.
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
		return p.Core()
	}
	f := func(s1, s2 int64) bool {
		p, q := gen(s1), gen(s2)
		if len(p.S) != len(q.S) {
			return true // sizes differ: nothing to compare
		}
		brute := bruteSurjects(p, q) && bruteSurjects(q, p)
		kp, err := p.CanonicalKey()
		if err != nil {
			return false
		}
		kq, err := q.CanonicalKey()
		if err != nil {
			return false
		}
		return brute == (kp == kq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The empty universe has no canonical key, yet two empty-universe
// formulas are counting equivalent, and neither is equivalent to a
// formula with elements.
func TestCanonicalKeyEmptyUniverse(t *testing.T) {
	empty := PP{A: structure.AtomsOf(structure.New(edgeSig()))}
	if _, err := empty.CanonicalKey(); err == nil {
		t.Fatal("empty universe should error")
	}
	if eq, err := CountingEquivalent(empty, PP{A: structure.AtomsOf(structure.New(edgeSig()))}); err != nil || !eq {
		t.Fatalf("two empty universes: equivalent %v, err %v", eq, err)
	}
	loop := mustPP(t, edgeSig(), nil, logic.Disjunct{Exist: []logic.Var{"u"}, Atoms: []logic.Atom{atom("E", "u", "u")}})
	if eq, err := CountingEquivalent(empty, loop); err != nil || eq {
		t.Fatalf("empty universe against a sentence: equivalent %v, err %v", eq, err)
	}
}

// labelSteps labels p on a fresh canonizer and returns the search nodes
// it explored.
func labelSteps(t *testing.T, p PP) int {
	t.Helper()
	c := new(canonizer)
	if _, err := c.key(p, labelingBudget); err != nil {
		t.Fatal(err)
	}
	return c.steps
}

// Interchangeable variables must not make labeling factorial: without
// automorphism pruning the k liberal leaves of a star are explored in
// all k! orders.  With it the star's steps grow as k(k+1)/2.
func TestCanonicalKeyPrunesSymmetricSearch(t *testing.T) {
	sig := edgeSig()
	q := workload.StarQuery(16)
	star, err := FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if steps := labelSteps(t, star.Core()); steps > 1000 {
		t.Fatalf("StarQuery(16) core labels in %d steps, want ≤ 1000", steps)
	}
	for _, fam := range symmetricFamilies(t) {
		if steps := labelSteps(t, fam.p); steps > 1000 {
			t.Fatalf("%s labels in %d steps, want ≤ 1000", fam.name, steps)
		}
	}
}

// A labeling that overruns its step budget refuses with a typed error.
func TestCanonicalKeyBudgetRefusal(t *testing.T) {
	q := workload.StarQuery(3)
	star, err := FromDisjunct(edgeSig(), q.Lib, q.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := new(canonizer).key(star, 1); !errors.Is(err, ErrLabelingBudget) {
		t.Fatalf("budget 1 on a star: err = %v, want ErrLabelingBudget", err)
	}
	if _, err := new(canonizer).key(star, labelingBudget); err != nil {
		t.Fatal(err)
	}
}

// Property: two pp-terms share the canonical key of their cores — the
// term pool's fingerprint — iff brute force finds them renaming
// equivalent, which Theorem 5.4 makes counting equivalent.
func TestFingerprintIffCountingEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	var catalog []PP
	for i := 0; i < 24; i++ {
		a := structure.New(edgeSig())
		n := 2 + rng.Intn(4)
		for v := 0; v < n; v++ {
			a.FreshElem("v")
		}
		for e, tuples := 0, 1+rng.Intn(5); e < tuples; e++ {
			if err := a.AddTuple("E", rng.Intn(n), rng.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		var s []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				s = append(s, v)
			}
		}
		p, err := New(structure.AtomsOf(a), s)
		if err != nil {
			t.Fatal(err)
		}
		// Guaranteed-positive pairs: a shuffled copy.
		catalog = append(catalog, p, shuffledCopy(t, p, rng.Int63()))
	}
	fps := make([]string, len(catalog))
	for i, p := range catalog {
		fp, err := p.Core().CanonicalKey()
		if err != nil {
			t.Fatalf("labeling %v: %v", p, err)
		}
		fps[i] = fp
	}
	for i, p := range catalog {
		for j := i + 1; j < len(catalog); j++ {
			q := catalog[j]
			brute := len(p.S) == len(q.S) && bruteSurjects(p, q) && bruteSurjects(q, p)
			if brute != (fps[i] == fps[j]) {
				t.Fatalf("formulas %d (%v) and %d (%v): renaming equivalent=%v but fingerprint equality=%v",
					i, p, j, q, brute, fps[i] == fps[j])
			}
		}
	}
}
