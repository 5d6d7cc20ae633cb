package pp

import (
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
	p.A.ForEachTuple("E", func(t []int) bool {
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
				if !q.A.HasTuple("E", []int{h[t[0]], h[t[1]]}) {
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
		p, err := New(a, s)
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

// TestRenamingEquivalentMatchesBruteForce checks Definition 5.3's
// decision procedure against brute force on seeded pairs: equivalent iff
// each formula's structure maps into the other's by a homomorphism that
// is a bijection on the liberal sets.  CountingEquivalent is the same
// decision (Theorem 5.4); the term pool's fallback merge relies on it.
func TestRenamingEquivalentMatchesBruteForce(t *testing.T) {
	seeds := int64(2000)
	if testing.Short() {
		seeds = 400
	}
	equiv := 0
	for seed := int64(0); seed < seeds; seed++ {
		p, q := randomEquivPair(t, seed)
		want := len(p.S) == len(q.S) && bruteSurjects(p, q) && bruteSurjects(q, p)
		got, err := RenamingEquivalent(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: RenamingEquivalent(%v, %v) = %v, brute force %v", seed, p, q, got, want)
		}
		if want {
			equiv++
		}
	}
	if equiv < int(seeds)/10 {
		t.Fatalf("generator is lopsided: %d of %d pairs are equivalent", equiv, seeds)
	}
}
