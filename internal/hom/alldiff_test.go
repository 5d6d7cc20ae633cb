package hom

import (
	"math/rand"
	"testing"

	"repro/internal/structure"
	"repro/internal/workload"
)

// bruteBijectionOn reports whether some homomorphism h : A → B maps SA
// bijectively onto SB, by backtracking over A's elements in index order:
// an element of SA ranges over the unused elements of SB, every other
// element over B, and each A-tuple is checked once its last element is
// assigned.
func bruteBijectionOn(A, B *structure.Structure, SA, SB []int) bool {
	nA, nB := A.Size(), B.Size()
	if len(SA) != len(SB) {
		return false
	}
	inSA := make([]bool, nA)
	for _, v := range SA {
		inSA[v] = true
	}
	type atom struct {
		rel string
		tup []int
	}
	last := make([][]atom, nA) // the tuples whose largest element is v
	for _, r := range A.Signature().Rels() {
		A.ForEachTuple(r.Name, func(t []int) bool {
			m := 0
			for _, x := range t {
				m = max(m, x)
			}
			last[m] = append(last[m], atom{r.Name, append([]int(nil), t...)})
			return true
		})
	}
	h, used := make([]int, nA), make([]bool, nB)
	img := make([]int, 0, 8)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == nA {
			return true
		}
		try := func(b int) bool {
			h[v] = b
			for _, a := range last[v] {
				img = img[:0]
				for _, x := range a.tup {
					img = append(img, h[x])
				}
				if !B.HasTuple(a.rel, img) {
					return false
				}
			}
			return rec(v + 1)
		}
		if !inSA[v] {
			for b := 0; b < nB; b++ {
				if try(b) {
					return true
				}
			}
			return false
		}
		for _, b := range SB {
			if used[b] {
				continue
			}
			used[b] = true
			ok := try(b)
			used[b] = false
			if ok {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// isBijectiveHom reports whether h is a homomorphism A → B that maps SA
// bijectively onto SB.
func isBijectiveHom(A, B *structure.Structure, SA, SB []int, h []int) bool {
	if len(h) != A.Size() {
		return false
	}
	want := map[int]bool{}
	for _, b := range SB {
		want[b] = true
	}
	for _, a := range SA {
		if !want[h[a]] {
			return false
		}
		delete(want, h[a])
	}
	ok := len(want) == 0
	for _, r := range A.Signature().Rels() {
		A.ForEachTuple(r.Name, func(t []int) bool {
			img := make([]int, len(t))
			for i, x := range t {
				img[i] = h[x]
			}
			ok = ok && B.HasTuple(r.Name, img)
			return ok
		})
	}
	return ok
}

// randomBijectionCase draws the seed's instance of the bijection
// differential: random graphs A and B on 3–6 elements each and equal-size
// subsets SA ⊆ A, SB ⊆ B.
func randomBijectionCase(seed int64) (A, B *structure.Structure, SA, SB []int) {
	rng := rand.New(rand.NewSource(seed))
	nA, nB := 3+rng.Intn(4), 3+rng.Intn(4)
	A = workload.RandomStructure(workload.EdgeSig(), nA, 0.15+0.5*rng.Float64(), rng.Int63())
	B = workload.RandomStructure(workload.EdgeSig(), nB, 0.15+0.5*rng.Float64(), rng.Int63())
	k := 1 + rng.Intn(min(nA, nB))
	return A, B, rng.Perm(nA)[:k], rng.Perm(nB)[:k]
}

// TestFindBijectionOnMatchesBruteForce is the seeded differential of the
// injectivity group: FindBijectionOn must find a witness exactly when
// brute force does, and every witness it returns must be a homomorphism
// whose restriction to SA is a bijection onto SB.  Values that the
// alldiff propagator removes must feed arc consistency: otherwise two
// members it narrows to singletons reach the leaf with their shared
// constraint never revised.
func TestFindBijectionOnMatchesBruteForce(t *testing.T) {
	seeds := int64(3000)
	if testing.Short() {
		seeds = 600
	}
	exists := 0
	for seed := int64(0); seed < seeds; seed++ {
		A, B, SA, SB := randomBijectionCase(seed)
		want := bruteBijectionOn(A, B, SA, SB)
		h, got := FindBijectionOn(A, B, SA, SB)
		if got && !isBijectiveHom(A, B, SA, SB, h) {
			t.Fatalf("seed %d: FindBijectionOn(SA=%v, SB=%v) = %v, which is not a homomorphism bijective on SA", seed, SA, SB, h)
		}
		if got != want {
			t.Fatalf("seed %d: FindBijectionOn(SA=%v, SB=%v) found a witness: %v, brute force: %v", seed, SA, SB, got, want)
		}
		if want {
			exists++
		}
	}
	if exists < int(seeds)/10 || exists > int(seeds)*9/10 {
		t.Fatalf("generator is lopsided: %d of %d instances have a witness", exists, seeds)
	}
}
