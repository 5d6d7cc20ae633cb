package workload

import (
	"testing"

	"repro/internal/logic"
)

func TestGraphGenerators(t *testing.T) {
	if g := PathGraph(5); g.NumEdges() != 4 || !g.IsConnected() {
		t.Fatal("path wrong")
	}
	if g := CycleGraph(5); g.NumEdges() != 5 {
		t.Fatal("cycle wrong")
	}
	if g := CompleteGraph(6); g.NumEdges() != 15 {
		t.Fatal("complete wrong")
	}
	if g := GridGraph(3, 4); g.N() != 12 || g.NumEdges() != 17 {
		t.Fatalf("grid wrong: %d edges", GridGraph(3, 4).NumEdges())
	}
	g := PlantedClique(12, 0.1, 5, 42)
	if !g.HasClique(5) {
		t.Fatal("planted clique missing")
	}
}

func TestERDeterminism(t *testing.T) {
	a := ER(10, 0.5, 7)
	b := ER(10, 0.5, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("ER not deterministic for equal seeds")
	}
	c := ER(10, 0.5, 8)
	if a.NumEdges() == c.NumEdges() && a.String() == c.String() {
		t.Fatal("different seeds should (overwhelmingly) differ")
	}
}

func TestGraphStructureSymmetric(t *testing.T) {
	g := PathGraph(3)
	s := GraphStructure(g)
	if s.Size() != 3 {
		t.Fatal("size wrong")
	}
	// Both orientations present.
	if s.Rel("E").Len() != 4 {
		t.Fatalf("tuples = %d, want 4 (2 edges × 2 orientations)", s.Rel("E").Len())
	}
}

func TestRandomStructureDensity(t *testing.T) {
	s0 := RandomStructure(EdgeSig(), 5, 0, 3)
	if s0.NumTuples() != 0 {
		t.Fatal("density 0 should have no tuples")
	}
	s1 := RandomStructure(EdgeSig(), 5, 1, 3)
	if s1.NumTuples() != 25 {
		t.Fatalf("density 1 should have all 25 tuples, got %d", s1.NumTuples())
	}
}

func TestQueryFamilies(t *testing.T) {
	p := PathQuery(3)
	if len(p.Lib) != 2 {
		t.Fatal("path query lib wrong")
	}
	if len(p.Disjuncts()) != 1 {
		t.Fatal("path query should be pp")
	}
	fp := FreePathQuery(3)
	if len(fp.Lib) != 4 {
		t.Fatal("free path lib wrong")
	}
	c := CliqueQuery(4)
	if len(c.Lib) != 4 || len(logic.Atoms(c.F)) != 6 {
		t.Fatal("clique query wrong")
	}
	cs := CliqueSentence(4)
	if len(cs.Lib) != 0 {
		t.Fatal("clique sentence should have no liberal variables")
	}
	st := StarQuery(3)
	if len(st.Lib) != 3 || len(logic.Atoms(st.F)) != 3 {
		t.Fatal("star query wrong")
	}
	cy := CycleQuery(4)
	if len(logic.Atoms(cy.F)) != 4 {
		t.Fatal("cycle query wrong")
	}
}

func TestRandomQueriesValid(t *testing.T) {
	sig := EdgeSig()
	for seed := int64(0); seed < 10; seed++ {
		q := RandomPPQuery(sig, 4, 2, 3, seed)
		if len(q.Disjuncts()) != 1 {
			t.Fatalf("seed %d: random pp query has %d disjuncts", seed, len(q.Disjuncts()))
		}
		ep := RandomEPQuery(sig, 3, 3, 2, 2, seed)
		if len(ep.Disjuncts()) != 3 {
			t.Fatalf("seed %d: random ep query has %d disjuncts", seed, len(ep.Disjuncts()))
		}
	}
}

func TestSocialNetwork(t *testing.T) {
	s := SocialNetwork(20, 5, 3, 1)
	if s.Size() != 28 {
		t.Fatalf("social network size = %d, want 28", s.Size())
	}
	if s.Rel("Follows").Len() == 0 || s.Rel("Likes").Len() == 0 || s.Rel("Member").Len() == 0 {
		t.Fatal("social network relations empty")
	}
	// Deterministic for equal seeds.
	s2 := SocialNetwork(20, 5, 3, 1)
	if s.NumTuples() != s2.NumTuples() {
		t.Fatal("social network not deterministic")
	}
}
