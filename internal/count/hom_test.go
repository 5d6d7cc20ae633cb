package count

import (
	"math/big"
	"testing"

	"repro/internal/engine"
	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// homomorphisms counts all homomorphisms A → B with the engine: the
// quantifier-free pp-formula whose liberal variables are all of A's
// elements, so the core is A itself, not a smaller retract.
func homomorphisms(a, b *structure.Structure) (*big.Int, error) {
	all := make([]int, a.Size())
	for i := range all {
		all[i] = i
	}
	p, err := pp.New(structure.AtomsOf(a), all)
	if err != nil {
		return nil, err
	}
	return engine.CountOnce(p, b)
}

func TestHomomorphismsMatchesEnumeration(t *testing.T) {
	sig := workload.EdgeSig()
	for seed := int64(0); seed < 10; seed++ {
		a := workload.RandomStructure(sig, 3, 0.4, seed)
		b := workload.RandomStructure(sig, 4, 0.4, seed+50)
		want := hom.Count(structure.AtomsOf(a), b, hom.Options{})
		got, err := homomorphisms(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: DP homs %v != enumerated %v", seed, got, want)
		}
	}
}

func TestHomomorphismsPathIntoClique(t *testing.T) {
	// Walks of length 2 in K4 (symmetric): 4·3·3 = 36 homomorphisms of
	// the path a-b-c.
	path := workload.GraphStructure(workload.PathGraph(3))
	k4 := workload.GraphStructure(workload.CompleteGraph(4))
	got, err := homomorphisms(path, k4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(36)) != 0 {
		t.Fatalf("homs = %v, want 36", got)
	}
}
