package cliquered

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

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
			got, err := CountCliquesViaQuery(g, k)
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
		got, err := CountCliquesViaQuery(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("k=%d: via query %v != native %v", k, got, want)
		}
		has, err := HasCliqueViaQuery(g, k)
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
	got, err := CountCliquesViaQuery(g, 3)
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
		got, err := HasCliqueViaQuery(g, k)
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
	if c, err := CountCliquesViaQuery(g, 0); err != nil || c.Sign() != 1 {
		t.Fatalf("0-cliques = %v, %v", c, err)
	}
	if ok, err := HasCliqueViaQuery(g, 0); err != nil || !ok {
		t.Fatalf("0-clique existence = %v, %v", ok, err)
	}
}
