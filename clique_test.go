// The hardness directions of the trichotomy (Theorem 2.12 / cases 2–3 of
// Theorem 3.2), constructively: the clique decision and counting problems
// embed into answer counting for the canonical hard query families, so an
// answer-counting engine *is* a (#)Clique solver.  The tests check both
// directions against the native clique counters of internal/graph.

package epcq_test

import (
	"fmt"
	"math/big"
	"testing"

	epcq "repro"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/workload"
)

// countCliquesViaQuery counts the k-cliques of g by counting the answers
// of the free k-clique query on the symmetric encoding of g and dividing
// by k! — the reduction that makes case-3 families #Clique-hard.
func countCliquesViaQuery(g *graph.Graph, k int) (*big.Int, error) {
	if k <= 0 {
		return big.NewInt(1), nil
	}
	p, err := epcq.ToPP(workload.CliqueQuery(k), workload.EdgeSig())
	if err != nil {
		return nil, err
	}
	b := workload.GraphStructure(g)
	if b.Size() == 0 {
		return new(big.Int), nil
	}
	answers, err := engine.CountOnce(p, b)
	if err != nil {
		return nil, err
	}
	// The encoding is symmetric and loop-free, so answers are exactly the
	// ordered k-cliques: divide by k!.
	fact := big.NewInt(1)
	for i := 2; i <= k; i++ {
		fact.Mul(fact, big.NewInt(int64(i)))
	}
	q, r := new(big.Int).QuoRem(answers, fact, new(big.Int))
	if r.Sign() != 0 {
		return nil, fmt.Errorf("answer count %v not divisible by %d! (encoding bug)", answers, k)
	}
	return q, nil
}

// hasCliqueViaQuery decides k-clique existence through the Boolean clique
// query — the case-2 shape (model checking a quantified clique).
func hasCliqueViaQuery(g *graph.Graph, k int) (bool, error) {
	if k <= 0 {
		return true, nil
	}
	p, err := epcq.ToPP(workload.CliqueSentence(k), workload.EdgeSig())
	if err != nil {
		return false, err
	}
	b := workload.GraphStructure(g)
	if b.Size() == 0 {
		return false, nil
	}
	c, err := engine.CountOnce(p, b)
	if err != nil {
		return false, err
	}
	return c.Sign() > 0, nil
}

func TestCountCliquesViaQueryMatchesNative(t *testing.T) {
	graphs := []*graph.Graph{
		workload.CompleteGraph(5),
		workload.PathGraph(6),
		workload.CycleGraph(5),
		workload.ER(8, 0.5, 7),
		workload.PlantedClique(9, 0.3, 4, 11),
	}
	for gi, g := range graphs {
		for k := 2; k <= 4; k++ {
			want := g.CountCliques(k)
			got, err := countCliquesViaQuery(g, k)
			if err != nil {
				t.Fatalf("graph %d k=%d: %v", gi, k, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("graph %d k=%d: via query %v != native %v", gi, k, got, want)
			}
		}
	}
}

// Theorems 2.12 / 3.2, hardness side: on a 6-clique planted in
// G(14, 0.5), answer counting for the free k-clique query (case 3)
// counts k-cliques, and the clique sentence (case 2) decides their
// existence.
func TestPaperCliqueCountViaQuery(t *testing.T) {
	g := workload.PlantedClique(14, 0.5, 6, 123)
	for k := 2; k <= 4; k++ {
		want := g.CountCliques(k)
		got, err := countCliquesViaQuery(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("k=%d: via query %v != native %v", k, got, want)
		}
		has, err := hasCliqueViaQuery(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if has != (want.Sign() > 0) {
			t.Fatalf("k=%d: clique sentence says %v, native count %v", k, has, want)
		}
		t.Logf("k=%d  #k-cliques %v  sentence %v", k, got, has)
	}
}

func TestCountCliquesViaFPTEngine(t *testing.T) {
	g := workload.PlantedClique(8, 0.4, 4, 3)
	want := g.CountCliques(3)
	got, err := countCliquesViaQuery(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("FPT engine: %v != %v", got, want)
	}
}

func TestHasCliqueViaQuery(t *testing.T) {
	g := workload.PlantedClique(10, 0.2, 4, 5)
	for k := 2; k <= 5; k++ {
		want := g.HasClique(k)
		got, err := hasCliqueViaQuery(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("k=%d: via query %v != native %v", k, got, want)
		}
	}
}

func TestTrivialK(t *testing.T) {
	g := workload.PathGraph(3)
	if c, err := countCliquesViaQuery(g, 0); err != nil || c.Sign() != 1 {
		t.Fatalf("0-cliques = %v, %v", c, err)
	}
	if ok, err := hasCliqueViaQuery(g, 0); err != nil || !ok {
		t.Fatalf("0-clique existence = %v, %v", ok, err)
	}
}
