package hom

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/structure"
)

// scanSig is E/2 + R/3: a binary relation, which may revise on support
// rows, and a ternary one, which never does.
var scanSig = structure.MustSignature(
	structure.RelSym{Name: "E", Arity: 2},
	structure.RelSym{Name: "R", Arity: 3},
)

// randomBody draws a formula body of n variables with up to nE E-atoms
// and nR R-atoms; one atom in three repeats a variable (E(x,x),
// R(x,x,y), R(x,y,x), ...).
func randomBody(rng *rand.Rand, n, nE, nR int) *structure.Atoms {
	s := structure.New(scanSig)
	for i := 0; i < n; i++ {
		s.FreshElem("v")
	}
	pick := func(t []int) []int {
		for i := range t {
			t[i] = rng.Intn(n)
		}
		if rng.Intn(3) == 0 {
			i, j := rng.Intn(len(t)), rng.Intn(len(t))
			t[i] = t[j]
		}
		return t
	}
	for i, k := 0, rng.Intn(nE+1); i < k; i++ {
		_ = s.AddTuple("E", pick(make([]int, 2))...)
	}
	for i, k := 0, rng.Intn(nR+1); i < k; i++ {
		_ = s.AddTuple("R", pick(make([]int, 3))...)
	}
	return structure.AtomsOf(s)
}

// results renders Exists, Find and Count for one pair, each computed on
// a solver from solve, and the answers ForEachExtendable enumerates on
// proj with B as target.
func results[T Target](a *structure.Atoms, B T, proj []int, opts Options, solve func() *solver) string {
	var answers [][]int
	ForEachExtendable(a, B, proj, opts, func(vals []int) bool {
		answers = append(answers, append([]int(nil), vals...))
		return true
	})
	sol, found := solve().find()
	return fmt.Sprint(solve().exists(), sol, found, solve().count(), answers)
}

// TestScanMatchesPostingLists runs seeded formula pairs with the target
// as a formula body, whose atoms the row kernel scans, and as its
// canonical database, whose posting lists and columns it reads.  Arc
// consistency has one fixpoint, so Exists, Find, Count, the answers
// ForEachExtendable enumerates and Retract must agree — with support
// rows where the relation fits them, and with the row kernel alone.
func TestScanMatchesPostingLists(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 600
	}
	rng := rand.New(rand.NewSource(52))
	found, repeated := 0, 0
	for round := 0; round < rounds; round++ {
		a := randomBody(rng, 1+rng.Intn(5), 4, 3)
		b := randomBody(rng, 1+rng.Intn(7), 12, 8)
		db := b.Database()
		var opts Options
		if rng.Intn(3) == 0 {
			opts.Pin = map[int]int{rng.Intn(a.Size()): rng.Intn(b.Size())}
		}
		proj := rng.Perm(a.Size())[:rng.Intn(a.Size()+1)]
		var fixed []int
		if rng.Intn(2) == 0 {
			fixed = []int{rng.Intn(b.Size())}
		}
		for _, rowsOnly := range []bool{false, true} {
			build := func(a *structure.Atoms, bs *structure.Structure, ba *structure.Atoms, opts Options) *solver {
				s := new(solver).init(a, bs, ba, opts)
				if rowsOnly {
					s.rowKernelOnly()
				}
				return s
			}
			scan := results(a, b, proj, opts, func() *solver { return build(a, nil, b, opts) })
			posts := results(a, db, proj, opts, func() *solver { return build(a, db, nil, opts) })
			if scan != posts {
				t.Fatalf("round %d (rows only %v): A = %v, B = %v, opts %v:\nscan          %s\nposting lists %s", round, rowsOnly, a.Database(), db, opts, scan, posts)
			}
			onBody := fmt.Sprint(build(b, nil, b, Options{}).retract(fixed))
			onDB := fmt.Sprint(build(b, db, nil, Options{}).retract(fixed))
			if onBody != onDB {
				t.Fatalf("round %d (rows only %v): B = %v: retract on the body %s, on the database %s", round, rowsOnly, db, onBody, onDB)
			}
		}
		// The pooled entry points take either target.
		if fmt.Sprint(Retract(b, fixed)) != fmt.Sprint(newSolver(b, db, Options{}).retract(fixed)) {
			t.Fatalf("round %d: Retract of B = %v differs from its retract on the database", round, db)
		}
		if Exists(a, b, opts) != Exists(a, db, opts) || Count(a, b, opts).Cmp(Count(a, db, opts)) != 0 {
			t.Fatalf("round %d: Exists or Count differ between the body and its database", round)
		}
		if Exists(a, b, opts) {
			found++
		}
		for ri := 0; ri < scanSig.NumRels(); ri++ {
			ar := scanSig.Rel(ri).Arity
			for args := a.Args(ri); len(args) > 0; args = args[ar:] {
				if args[0] == args[1] || ar == 3 && (args[0] == args[2] || args[1] == args[2]) {
					repeated++
				}
			}
		}
	}
	t.Logf("%d pairs, %d with a homomorphism, %d repeated-variable atoms in the sources", rounds, found, repeated)
	if found < rounds/10 || found > rounds*9/10 || repeated < rounds/4 {
		t.Fatalf("generator is lopsided: %d of %d pairs map, %d repeated-variable atoms", found, rounds, repeated)
	}
}
