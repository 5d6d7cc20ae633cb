package graph

import (
	"math/big"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 1) // self-loop ignored
	g.AddEdge(-1, 2)
	g.AddEdge(0, 9)
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if n := g.Neighbors(1); len(n) != 2 || n[0] != 0 || n[1] != 2 {
		t.Fatalf("neighbors = %v", n)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3 ({0,1,2},{3,4},{5})", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !path(5).IsConnected() {
		t.Fatal("path reported disconnected")
	}
	if !New(0).IsConnected() || !New(1).IsConnected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestSubgraph(t *testing.T) {
	g := path(5)
	sub, old := g.Subgraph([]int{1, 2, 4})
	if sub.N() != 3 {
		t.Fatalf("sub size = %d", sub.N())
	}
	if sub.NumEdges() != 1 {
		t.Fatalf("sub edges = %d, want 1 (only 1-2 survives)", sub.NumEdges())
	}
	if old[0] != 1 || old[1] != 2 || old[2] != 4 {
		t.Fatalf("old mapping = %v", old)
	}
}

func TestCliqueDetection(t *testing.T) {
	k5 := complete(5)
	for k := 1; k <= 5; k++ {
		if !k5.HasClique(k) {
			t.Fatalf("K5 must contain a %d-clique", k)
		}
	}
	if k5.HasClique(6) {
		t.Fatal("K5 must not contain a 6-clique")
	}
	p := path(6)
	if !p.HasClique(2) || p.HasClique(3) {
		t.Fatal("path clique detection wrong")
	}
	if !New(3).HasClique(1) || New(3).HasClique(2) {
		t.Fatal("empty-graph clique detection wrong")
	}
	if !New(0).HasClique(0) {
		t.Fatal("0-clique always exists")
	}
}

func TestCountCliques(t *testing.T) {
	k5 := complete(5)
	// C(5,3) = 10 triangles.
	if got := k5.CountCliques(3); got.Cmp(big.NewInt(10)) != 0 {
		t.Fatalf("K5 triangles = %v, want 10", got)
	}
	if got := k5.CountCliques(5); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("K5 5-cliques = %v, want 1", got)
	}
	if got := k5.CountCliques(1); got.Cmp(big.NewInt(5)) != 0 {
		t.Fatalf("K5 1-cliques = %v", got)
	}
	if got := k5.CountCliques(0); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("0-cliques = %v, want 1", got)
	}
	p := path(10)
	if got := p.CountCliques(2); got.Cmp(big.NewInt(9)) != 0 {
		t.Fatalf("path edges = %v, want 9", got)
	}
	if got := p.CountCliques(3); got.Sign() != 0 {
		t.Fatalf("path triangles = %v, want 0", got)
	}
}

func TestIsCliqueAddClique(t *testing.T) {
	g := New(5)
	g.AddClique([]int{0, 2, 4})
	if !g.IsClique([]int{0, 2, 4}) {
		t.Fatal("AddClique failed")
	}
	if g.IsClique([]int{0, 1, 2}) {
		t.Fatal("IsClique false positive")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestCloneIndependent(t *testing.T) {
	g := path(3)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Fatal("clone not independent")
	}
}

// Property: #2-cliques equals edge count; HasClique(k) agrees with
// CountCliques(k) > 0, on random graphs.
func TestCliqueCountProperties(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		size := int(n%8) + 2
		g := New(size)
		// Deterministic pseudo-random edges from seed.
		s := seed
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				s = s*6364136223846793005 + 1442695040888963407
				if s%3 == 0 {
					g.AddEdge(i, j)
				}
			}
		}
		if g.CountCliques(2).Cmp(big.NewInt(int64(g.NumEdges()))) != 0 {
			return false
		}
		for k := 2; k <= 4; k++ {
			if g.HasClique(k) != (g.CountCliques(k).Sign() > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
