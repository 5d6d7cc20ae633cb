package logic_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// nestedDisjunctsGolden is the SHA-256 of TestDisjunctsGoldenNested's
// transcript.
const nestedDisjunctsGolden = "0d83553fbccab65fd881f1316381c6ed1be1314e4400833a7c90c50cb73f9959"

// TestDisjunctsGoldenNested pins Query.Disjuncts where the cold-query
// stream's flat disjunctions do not reach: conjunctions of disjunctions
// (a disjunct distributed into several), quantifiers under conjunctions
// and disjunctions, a variable quantified twice on one path, and ⊤.
func TestDisjunctsGoldenNested(t *testing.T) {
	h := sha256.New()
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := randomNested(rng, 4, []logic.Var{"x", "y"})
		q, err := logic.NewQuery("q", logic.SortedVars(logic.FreeVars(f)), f)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range q.Disjuncts() {
			fmt.Fprintln(h, seed, d.Exist, d)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != nestedDisjunctsGolden {
		t.Fatalf("nested disjuncts transcript hash %s, want %s", got, nestedDisjunctsGolden)
	}
}

// randomNested draws a formula of the given depth whose atoms use the
// free variables x, y and the quantified ones in scope.
func randomNested(rng *rand.Rand, depth int, scope []logic.Var) logic.Formula {
	k := rng.Intn(6)
	if depth == 0 {
		k = rng.Intn(2)
	}
	switch k {
	case 0:
		return logic.Atom{Rel: "E", Args: []logic.Var{scope[rng.Intn(len(scope))], scope[rng.Intn(len(scope))]}}
	case 1:
		if rng.Intn(8) == 0 {
			return logic.Truth{}
		}
		return logic.Atom{Rel: "R", Args: []logic.Var{scope[rng.Intn(len(scope))], scope[rng.Intn(len(scope))], scope[rng.Intn(len(scope))]}}
	case 2, 3:
		return logic.And{L: randomNested(rng, depth-1, scope), R: randomNested(rng, depth-1, scope)}
	case 4:
		return logic.Or{L: randomNested(rng, depth-1, scope), R: randomNested(rng, depth-1, scope)}
	}
	v := []logic.Var{"a", "b", "c"}[rng.Intn(3)]
	return logic.Exists{V: v, Body: randomNested(rng, depth-1, append(scope[:len(scope):len(scope)], v))}
}
