package tw

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/workload"
)

func path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *graph.Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func complete(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func grid(r, c int) *graph.Graph {
	g := graph.New(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j))
			}
		}
	}
	return g
}

func TestTreewidthKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"empty-3", graph.New(3), 0},
		{"single", graph.New(1), 0},
		{"path-6", path(6), 1},
		{"cycle-5", cycle(5), 2},
		{"K4", complete(4), 3},
		{"K7", complete(7), 6},
		{"grid-3x3", grid(3, 3), 3},
		{"grid-2x4", grid(2, 4), 2},
	}
	for _, c := range cases {
		w, dec, exact := Treewidth(c.g)
		if !exact {
			t.Errorf("%s: expected exact result", c.name)
		}
		if w != c.want {
			t.Errorf("%s: treewidth = %d, want %d", c.name, w, c.want)
		}
		if err := dec.Validate(c.g); err != nil {
			t.Errorf("%s: invalid decomposition: %v", c.name, err)
		}
		if dec.Width() != w {
			t.Errorf("%s: decomposition width %d != reported %d", c.name, dec.Width(), w)
		}
	}
}

func TestHeuristicValid(t *testing.T) {
	for _, g := range []*graph.Graph{path(10), cycle(8), grid(3, 4), complete(6)} {
		dec := HeuristicDecomposition(g)
		if err := dec.Validate(g); err != nil {
			t.Fatalf("heuristic decomposition invalid: %v", err)
		}
	}
}

func TestLowerBoundMMD(t *testing.T) {
	if lb := LowerBoundMMD(complete(5)); lb != 4 {
		t.Fatalf("MMD(K5) = %d, want 4", lb)
	}
	if lb := LowerBoundMMD(path(7)); lb != 1 {
		t.Fatalf("MMD(path) = %d, want 1", lb)
	}
	if lb := LowerBoundMMD(cycle(6)); lb != 2 {
		t.Fatalf("MMD(cycle) = %d, want 2", lb)
	}
}

func TestValidateCatchesBadDecompositions(t *testing.T) {
	g := path(3)
	// Vertex missing.
	d := &Decomposition{Bags: [][]int{{0, 1}}, Parent: []int{-1}}
	if err := d.Validate(g); err == nil {
		t.Fatal("missing vertex not caught")
	}
	// Edge missing.
	d = &Decomposition{Bags: [][]int{{0, 1}, {2}}, Parent: []int{-1, 0}}
	if err := d.Validate(g); err == nil {
		t.Fatal("missing edge not caught")
	}
	// Disconnected occurrence of vertex 0.
	d = &Decomposition{Bags: [][]int{{0, 1}, {1, 2}, {0}}, Parent: []int{-1, 0, 1}}
	if err := d.Validate(g); err == nil {
		t.Fatal("disconnected vertex occurrences not caught")
	}
	// Two roots.
	d = &Decomposition{Bags: [][]int{{0, 1}, {1, 2}}, Parent: []int{-1, -1}}
	if err := d.Validate(g); err == nil {
		t.Fatal("multiple roots not caught")
	}
}

func TestDisconnectedGraph(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	w, dec, exact := Treewidth(g)
	if w != 1 || !exact {
		t.Fatalf("tw = %d exact=%v, want 1 exact", w, exact)
	}
	if err := dec.Validate(g); err != nil {
		t.Fatalf("decomposition invalid: %v", err)
	}
}

// The classifier's widths are exact up to its size cap and min-fill upper
// bounds beyond it; the logged rows show the gap on G(14, 0.3).
func TestPaperTreewidthSandwich(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := workload.ER(14, 0.3, seed)
		w, _, _ := Treewidth(g)
		heur := HeuristicDecomposition(g).Width()
		if heur < w {
			t.Fatalf("G(14, 0.3) seed %d: min-fill width %d below exact %d", seed, heur, w)
		}
		t.Logf("seed %d  edges %d  exact %d  min-fill %d", seed, g.NumEdges(), w, heur)
	}
}

// Property: on random graphs, the exact width is between the MMD lower
// bound and the min-fill upper bound, and its decomposition validates.
func TestTreewidthSandwichProperty(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		size := int(n%7) + 2
		g := graph.New(size)
		s := seed
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				s = s*2862933555777941757 + 3037000493
				if s%3 == 0 {
					g.AddEdge(i, j)
				}
			}
		}
		w, dec, exact := Treewidth(g)
		if !exact {
			return false
		}
		if err := dec.Validate(g); err != nil {
			return false
		}
		lb := LowerBoundMMD(g)
		ub := HeuristicDecomposition(g).Width()
		return lb <= w && w <= ub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Rerooting at any bag keeps the decomposition valid (same bags, same
// tree edges) and makes that bag the unique root.
func TestRerootKeepsDecompositionValid(t *testing.T) {
	for _, g := range []*graph.Graph{path(6), cycle(7), grid(3, 3), complete(4)} {
		_, dec, _ := Treewidth(g)
		for r := range dec.Bags {
			dec.Reroot(r)
			if dec.Parent[r] != -1 {
				t.Fatalf("bag %d is not the root after Reroot", r)
			}
			if err := dec.Validate(g); err != nil {
				t.Fatalf("reroot at %d: %v", r, err)
			}
		}
	}
}

// Reduce leaves a valid decomposition of the same width in which no bag
// contains a tree neighbour's, whatever bag it was rooted at before.
func TestReduceContractsSubsetBags(t *testing.T) {
	for _, g := range []*graph.Graph{path(6), cycle(7), grid(3, 3), complete(4), graph.New(1), graph.New(3)} {
		_, ref, _ := Treewidth(g)
		for r := range ref.Bags {
			_, dec, _ := Treewidth(g)
			dec.Reroot(r)
			dec.Reduce()
			if err := dec.Validate(g); err != nil {
				t.Fatalf("rooted at %d: %v", r, err)
			}
			if dec.Width() != ref.Width() {
				t.Fatalf("rooted at %d: width %d after Reduce, want %d", r, dec.Width(), ref.Width())
			}
			for i, p := range dec.Parent {
				if p >= 0 && (subset(dec.Bags[i], dec.Bags[p]) || subset(dec.Bags[p], dec.Bags[i])) {
					t.Fatalf("rooted at %d: bags %v and %v still nested", r, dec.Bags[i], dec.Bags[p])
				}
			}
			if !subset(ref.Bags[r], dec.Bags[rootOf(dec)]) {
				t.Fatalf("root %v no longer contains the bag %v it was rooted at", dec.Bags[rootOf(dec)], ref.Bags[r])
			}
		}
	}
}

func rootOf(d *Decomposition) int {
	for i, p := range d.Parent {
		if p == -1 {
			return i
		}
	}
	return -1
}
