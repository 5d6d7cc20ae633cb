package pp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/structure"
	"repro/internal/workload"
)

// bruteSurjects reports whether some homomorphism p.A → q.A maps p.S
// onto q.S (|p.S| = |q.S|, so onto means bijectively): backtracking over
// p.A's elements in index order, a liberal element ranging over q's
// unused liberal elements, each tuple checked once its last element is
// assigned.
func bruteSurjects(p, q PP) bool {
	nA, nB := p.A.Size(), q.A.Size()
	lib := p.sSet()
	var last [][][]int // the E-tuples whose largest element is v
	last = make([][][]int, nA)
	p.A.Database().ForEachTuple("E", func(t []int) bool {
		m := max(t[0], t[1])
		last[m] = append(last[m], append([]int(nil), t...))
		return true
	})
	h, used := make([]int, nA), make([]bool, nB)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == nA {
			return true
		}
		try := func(b int) bool {
			h[v] = b
			for _, t := range last[v] {
				if !q.A.Database().HasTuple("E", []int{h[t[0]], h[t[1]]}) {
					return false
				}
			}
			return rec(v + 1)
		}
		if !lib[v] {
			for b := 0; b < nB; b++ {
				if try(b) {
					return true
				}
			}
			return false
		}
		for _, b := range q.S {
			if !used[b] {
				used[b] = true
				ok := try(b)
				used[b] = false
				if ok {
					return true
				}
			}
		}
		return false
	}
	return rec(0)
}

// randomEquivPair draws the seed's pair of the renaming-equivalence
// differential: a random graph formula p on 3–6 elements with 1–3
// liberal elements, and either an independent one of the same liberal
// count or p with its elements shuffled and one edge added or dropped,
// which lands near the boundary of equivalence.
func randomEquivPair(t *testing.T, seed int64) (PP, PP) {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(4)
	k := 1 + rng.Intn(3)
	a := workload.RandomStructure(workload.EdgeSig(), n, 0.15+0.4*rng.Float64(), rng.Int63())
	mk := func(a *structure.Structure, s []int) PP {
		p, err := New(structure.AtomsOf(a), s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := mk(a, rng.Perm(n)[:k])
	if rng.Intn(2) == 0 {
		m := 3 + rng.Intn(4)
		b := workload.RandomStructure(workload.EdgeSig(), m, 0.15+0.4*rng.Float64(), rng.Int63())
		return p, mk(b, rng.Perm(m)[:min(k, m)])
	}
	perm := rng.Perm(n)
	b := structure.New(workload.EdgeSig())
	for i := 0; i < n; i++ {
		b.FreshElem("y")
	}
	drop := -1
	if rng.Intn(2) == 0 {
		drop = rng.Intn(max(1, a.NumTuples()))
	} else {
		_ = b.AddTuple("E", rng.Intn(n), rng.Intn(n))
	}
	i := 0
	a.ForEachTuple("E", func(t []int) bool {
		if i != drop {
			_ = b.AddTuple("E", perm[t[0]], perm[t[1]])
		}
		i++
		return true
	})
	s := make([]int, len(p.S))
	for j, v := range p.S {
		s[j] = perm[v]
	}
	return p, mk(b, s)
}

// TestRenamingEquivalentMatchesBruteForce checks the decision procedure
// of Definition 5.3 against brute force on seeded pairs: equivalent iff
// each formula's structure maps into the other's by a homomorphism that
// is a bijection on the liberal sets.  CountingEquivalent decides it
// (Theorem 5.4) by comparing the canonical keys of the cores, which is
// how the term pool merges inclusion–exclusion terms.  The random pairs
// are followed by symmetric families, whose labeling leans on
// automorphism pruning.
func TestRenamingEquivalentMatchesBruteForce(t *testing.T) {
	seeds := int64(2000)
	if testing.Short() {
		seeds = 400
	}
	equiv := 0
	check := func(name string, p, q PP) {
		t.Helper()
		want := len(p.S) == len(q.S) && bruteSurjects(p, q) && bruteSurjects(q, p)
		got, err := CountingEquivalent(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: CountingEquivalent(%v, %v) = %v, brute force %v", name, p, q, got, want)
		}
		if want {
			equiv++
		}
	}
	for seed := int64(0); seed < seeds; seed++ {
		p, q := randomEquivPair(t, seed)
		check(fmt.Sprintf("seed %d", seed), p, q)
	}
	if equiv < int(seeds)/10 {
		t.Fatalf("generator is lopsided: %d of %d pairs are equivalent", equiv, seeds)
	}
	for i, fam := range symmetricFamilies(t) {
		for j, seed := range []int64{int64(i), int64(i) + 1000} {
			twin := shuffledCopy(t, fam.p, seed)
			check(fmt.Sprintf("%s, twin %d", fam.name, j), fam.p, twin)
			if fam.small {
				check(fmt.Sprintf("%s, near miss %d", fam.name, j), fam.p, shuffledCopy(t, dropTuple(t, twin, int(seed)), seed))
			}
		}
	}
}

// symmetricFamily is a formula with many automorphisms; small ones are
// cheap enough for bruteSurjects to refute a near miss.
type symmetricFamily struct {
	name  string
	p     PP
	small bool
}

// symmetricFamilies returns stars with k ≤ 16 liberal leaves, K_{m,m}
// with every element liberal, r disjoint copies of a seeded gadget with
// one liberal element per copy, and a directed 6-cycle beside two
// 3-cycles, all liberal: refinement cannot tell its 6-cycle from its
// 3-cycles, though no automorphism maps one onto the other.
func symmetricFamilies(t *testing.T) []symmetricFamily {
	t.Helper()
	sig := workload.EdgeSig()
	var out []symmetricFamily
	for k := 1; k <= 16; k++ {
		q := workload.StarQuery(k)
		p, err := FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, symmetricFamily{fmt.Sprintf("star %d", k), p, k <= 6})
	}
	for m := 1; m <= 4; m++ {
		a := structure.New(sig)
		lib := make([]int, 2*m)
		for v := range lib {
			lib[v] = a.FreshElem("v")
		}
		for u := 0; u < m; u++ {
			for v := m; v < 2*m; v++ {
				if err := a.AddTuple("E", u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		p, err := New(structure.AtomsOf(a), lib)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, symmetricFamily{fmt.Sprintf("K_{%d,%d}", m, m), p, true})
	}
	for r := 2; r <= 4; r++ {
		rng := rand.New(rand.NewSource(int64(r)))
		gadget := workload.RandomStructure(sig, 3, 0.4, rng.Int63())
		a := structure.New(sig)
		var lib []int
		for c := 0; c < r; c++ {
			base := a.Size()
			for v := 0; v < 3; v++ {
				a.FreshElem("v")
			}
			lib = append(lib, base)
			var err error
			gadget.ForEachTuple("E", func(tp []int) bool {
				err = a.AddTuple("E", base+tp[0], base+tp[1])
				return err == nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		p, err := New(structure.AtomsOf(a), lib)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, symmetricFamily{fmt.Sprintf("%d disjoint copies", r), p, true})
	}
	a := structure.New(sig)
	lib := make([]int, 12)
	for v := range lib {
		lib[v] = a.FreshElem("v")
	}
	for _, cycle := range [][2]int{{0, 6}, {6, 9}, {9, 12}} {
		for v := cycle[0]; v < cycle[1]; v++ {
			next := v + 1
			if next == cycle[1] {
				next = cycle[0]
			}
			if err := a.AddTuple("E", v, next); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := New(structure.AtomsOf(a), lib)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, symmetricFamily{"C6 beside two C3", p, false})
}

// dropTuple returns p without its i-th E-tuple (mod the tuple count).
func dropTuple(t *testing.T, p PP, i int) PP {
	t.Helper()
	a := structure.New(p.A.Signature())
	for v := 0; v < p.A.Size(); v++ {
		a.FreshElem("v")
	}
	drop, j := i%max(1, p.A.NumAtoms()), 0
	var err error
	p.A.Database().ForEachTuple("E", func(tp []int) bool {
		if j != drop {
			err = a.AddTuple("E", tp...)
		}
		j++
		return err == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := New(structure.AtomsOf(a), p.S)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
