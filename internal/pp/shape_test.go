package pp_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/eptrans"
	"repro/internal/graph"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/tw"
	"repro/internal/workload"
)

// checkShape compares sh = pp.ShapeOf(d) with the objects of Sections 2.1
// and 2.4 computed from their definitions on graph.Graph (the reference
// of definitions_test.go), and validates every decomposition of sh
// against the graph it decomposes.
func checkShape(t *testing.T, d pp.PP) {
	t.Helper()
	sh := pp.ShapeOf(d)
	g := pp.GaifmanGraph(d)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%v: "+format, append([]any{d}, args...)...)
	}

	comps := g.Components()
	if len(sh.Components) != len(comps) {
		fail("%d components, reference %d", len(sh.Components), len(comps))
	}
	inS := make([]bool, d.A.Size())
	for _, v := range d.S {
		inS[v] = true
	}
	occurs := make([]bool, d.A.Size())
	for _, r := range d.A.Signature().Rels() {
		d.A.Database().ForEachTuple(r.Name, func(tu []int) bool {
			for _, v := range tu {
				occurs[v] = true
			}
			return true
		})
	}
	for i, c := range sh.Components {
		var lib, active []int
		for _, v := range comps[i] {
			if inS[v] {
				lib = append(lib, v)
				if occurs[v] {
					active = append(active, v)
				}
			}
		}
		if !slices.Equal(c.Vertices, comps[i]) || !slices.Equal(c.Lib, lib) || !slices.Equal(c.Active, active) {
			fail("component %d = (%v, %v, %v), reference (%v, %v, %v)", i, c.Vertices, c.Lib, c.Active, comps[i], lib, active)
		}
	}

	ref := pp.ExistsComponents(d)
	if len(sh.Exists) != len(ref) {
		fail("%d ∃-components, reference %d", len(sh.Exists), len(ref))
	}
	for i, ec := range sh.Exists {
		want := slices.Sorted(slices.Values(ref[i].Vertices))
		if !slices.Equal(ec.Vertices, want) || !slices.Equal(ec.Interface, ref[i].Interface) {
			fail("∃-component %d = (%v, %v), reference (%v, %v)", i, ec.Vertices, ec.Interface, want, ref[i].Interface)
		}
		// G[Vertices] plus a clique on the interface, rooted at a bag
		// holding the whole interface.
		pg, _ := g.Subgraph(ec.Vertices)
		root := make([]int, len(ec.Interface))
		for j, v := range ec.Interface {
			root[j] = slices.Index(ec.Vertices, v)
		}
		pg.AddClique(root)
		if err := ec.Pred.Validate(pg); err != nil {
			fail("∃-component %d: %v", i, err)
		}
		if r := slices.Index(ec.Pred.Parent, -1); !containsEvery(ec.Pred.Bags[r], root) {
			fail("∃-component %d: root bag %v misses the interface %v", i, ec.Pred.Bags[r], root)
		}
	}

	coreW, _, coreExact := tw.Treewidth(g)
	cg, _ := pp.ContractGraph(d)
	contractW, _, contractExact := tw.Treewidth(cg)
	if sh.CoreWidth != coreW || sh.CoreExact != coreExact || sh.ContractWidth != contractW || sh.ContractExact != contractExact {
		fail("widths (core %d %v, contract %d %v), reference (%d %v, %d %v)",
			sh.CoreWidth, sh.CoreExact, sh.ContractWidth, sh.ContractExact, coreW, coreExact, contractW, contractExact)
	}

	// Each component's contract decomposition decomposes contract(A,S)
	// induced on the component's active liberal variables, and is as wide
	// as that graph's treewidth.
	pos := make(map[int]int, len(d.S))
	for i, v := range d.S {
		pos[v] = i
	}
	for i, c := range sh.Components {
		if c.Contract == nil {
			if len(c.Active) != 0 {
				fail("component %d: %d active liberal variables and no contract decomposition", i, len(c.Active))
			}
			continue
		}
		idx := make([]int, len(c.Active))
		for j, v := range c.Active {
			idx[j] = pos[v]
		}
		part, _ := cg.Subgraph(idx)
		if err := c.Contract.Validate(part); err != nil {
			fail("component %d: %v", i, err)
		}
		if w, _, _ := tw.Treewidth(part); c.Contract.Width() != w {
			fail("component %d: contract decomposition width %d, treewidth %d", i, c.Contract.Width(), w)
		}
	}
}

func containsEvery(bag, set []int) bool {
	for _, v := range set {
		if !slices.Contains(bag, v) {
			return false
		}
	}
	return true
}

// TestShapeMatchesDefinitions checks the shape of every φ⁻af term of 600
// random ep-queries — cold-query's stream on {E/2}, and wider queries
// over a ternary relation — against the definitions.
func TestShapeMatchesDefinitions(t *testing.T) {
	ternary := ternarySig()
	terms := 0
	for seed := int64(1); seed <= 600; seed++ {
		sig, q := workload.EdgeSig(), workload.RandomEPQuery(workload.EdgeSig(), 4, 6, 2, 5, seed)
		if seed%3 == 0 {
			sig, q = ternary, workload.RandomEPQuery(ternary, 3, 7, 3, 6, seed)
		}
		c, err := eptrans.Compile(q, sig)
		if err != nil {
			t.Fatal(err)
		}
		for _, term := range c.Minus {
			checkShape(t, term.Formula)
			terms++
		}
		for _, s := range c.Sentences {
			checkShape(t, s.Core())
		}
	}
	t.Logf("%d φ⁻af terms", terms)
}

// TestShapeContractCorner pins the one place the contract width changed
// when it became the maximum over the components: 13 disjoint liberal
// edges have 26 liberal variables, more than the exact search takes in
// one graph, so contract(A,S) as a whole gets a min-fill bound, but each
// component has two active liberal variables and is decomposed exactly.
func TestShapeContractCorner(t *testing.T) {
	a := structure.New(workload.EdgeSig())
	var s []int
	for i := 0; i < 13; i++ {
		x, _ := a.AddElem(fmt.Sprintf("x%d", i))
		y, _ := a.AddElem(fmt.Sprintf("y%d", i))
		_ = a.AddTuple("E", x, y)
		s = append(s, x, y)
	}
	d, err := pp.New(structure.AtomsOf(a), s)
	if err != nil {
		t.Fatal(err)
	}
	sh := pp.ShapeOf(d)
	if sh.ContractWidth != 1 || !sh.ContractExact {
		t.Fatalf("contract width (%d, exact %v), want (1, exact)", sh.ContractWidth, sh.ContractExact)
	}
	cg, _ := pp.ContractGraph(d)
	if w, _, exact := tw.Treewidth(cg); w != 1 || exact {
		t.Fatalf("whole contract graph: (%d, exact %v), want the min-fill bound (1, inexact)", w, exact)
	}
	for _, c := range sh.Components {
		if err := c.Contract.Validate(graphOf(2, [2]int{0, 1})); err != nil {
			t.Fatal(err)
		}
	}
}

// graphOf returns the graph on n vertices with the given edges.
func graphOf(n int, edges ...[2]int) *graph.Graph {
	g := graph.New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// TestShapeConventions pins the contract width's conventions: -1 without
// liberal variables, 0 with isolated liberal variables only.
func TestShapeConventions(t *testing.T) {
	a := structure.New(workload.EdgeSig())
	u, _ := a.AddElem("u")
	v, _ := a.AddElem("v")
	_ = a.AddTuple("E", u, v)
	sentence, err := pp.New(structure.AtomsOf(a), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sh := pp.ShapeOf(sentence); sh.ContractWidth != -1 || len(sh.Exists) != 1 || len(sh.Exists[0].Interface) != 0 {
		t.Fatalf("sentence: contract width %d, ∃-components %v; want -1 and one without interface", sh.ContractWidth, sh.Exists)
	}
	b := structure.New(workload.EdgeSig())
	x, _ := b.AddElem("x")
	isolated, err := pp.New(structure.AtomsOf(b), []int{x})
	if err != nil {
		t.Fatal(err)
	}
	if sh := pp.ShapeOf(isolated); sh.ContractWidth != 0 || sh.Components[0].Contract != nil {
		t.Fatalf("isolated liberal variable: contract width %d, decomposition %v; want 0 and none", sh.ContractWidth, sh.Components[0].Contract)
	}
}
