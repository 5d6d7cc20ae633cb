package pp

import (
	"math/bits"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/tw"
)

// Shape is what Theorem 3.2's two conditions and Theorem 2.11's counting
// algorithm read of one formula: its Gaifman components (Section 2.1),
// its ∃-components (Section 2.4), and tree decompositions of the core
// graph, the contract graph and every ∃-component.  ShapeOf derives it
// once per compiled plan; it is immutable, and the engine (the
// decompositions) and classify (the widths) both read that one value.
type Shape struct {
	Formula    PP               // the formula derived from: a core, to classify
	Components []ComponentShape // the Gaifman components, in Components' order
	// Exists are the ∃-components, by smallest quantified vertex.  A
	// Gaifman component without liberal variables is one of them, with an
	// empty interface.
	Exists []ExistsComponent
	// CoreWidth is the treewidth of the Gaifman graph.  ContractWidth is
	// that of contract(A,S): the widest Contract decomposition, 0 if there
	// is none, -1 without liberal variables.  Each Exact flag reports
	// whether its width is exact rather than a min-fill upper bound.
	CoreWidth, ContractWidth int
	CoreExact, ContractExact bool
}

// ComponentShape is one Gaifman component of a Shape.
type ComponentShape struct {
	// Vertices, ascending, and Lib, those in S.  Active are the liberal
	// ones that occur in an atom: each lies in an atom on liberal
	// variables only or in an interface, and the others are isolated.
	Vertices, Lib, Active []int
	Exists                []int // indexes into Shape.Exists, ascending
	// Contract is a reduced tree decomposition of the component's part of
	// contract(A,S), G[Active] plus a clique per interface, vertex i
	// standing for Active[i]; nil when Active is empty.
	Contract *tw.Decomposition
}

// ExistsComponent is an ∃-component of a pp-formula (Section 2.4): the
// vertex set of a component of G[D∖S] in the core D, extended by the
// liberal vertices adjacent to it.
type ExistsComponent struct {
	Vertices  []int // ascending, indices into the formula's structure
	Interface []int // Vertices ∩ S (the adjacent liberal variables)
	// Pred is a reduced tree decomposition of G[Vertices] plus a clique
	// on Interface, vertex i standing for Vertices[i], rooted at a bag
	// holding the interface: the predicate "the interface extends to the
	// component" is decided on it.
	Pred *tw.Decomposition
}

// ShapeOf derives p's shape by word operations on the rows of its
// Gaifman graph.  Section 2.4 defines it on a core, so classifying
// callers pass one; the decompositions are sound for any formula.
func ShapeOf(p PP) *Shape {
	g := p.Graph()
	lib, free := make([]uint64, (p.A.Size()+63)/64), make([]uint64, (p.A.Size()+63)/64)
	for _, v := range p.S {
		lib[v>>6] |= 1 << (v & 63)
	}
	for _, v := range p.FreeElems() {
		free[v>>6] |= 1 << (v & 63)
	}
	sh := &Shape{Formula: p, ContractWidth: min(0, len(p.S)-1), ContractExact: true}
	var coreDec *tw.Decomposition
	sh.CoreWidth, coreDec, sh.CoreExact = tw.Treewidth(g)

	compOf := make([]int, p.A.Size())
	sets := g.Split(g.All())
	sh.Components = make([]ComponentShape, len(sets))
	for i, set := range sets {
		c := &sh.Components[i]
		c.Vertices, c.Lib, c.Active = members(set, nil), members(set, lib), members(set, free)
		for _, v := range c.Vertices {
			compOf[v] = i
		}
	}

	quantified := g.All()
	for i, w := range lib {
		quantified[i] &^= w
	}
	sets = g.Split(quantified)
	sh.Exists = make([]ExistsComponent, len(sets))
	for i, set := range sets {
		iface := make([]uint64, len(set))
		for v := range bitvec.Each(set) {
			bitvec.Or(iface, g.Row(v))
		}
		bitvec.And(iface, lib)
		bitvec.Or(set, iface)
		ec := &sh.Exists[i]
		ec.Vertices, ec.Interface = members(set, nil), members(iface, nil)
		root := positions(ec.Vertices, ec.Interface)
		if len(ec.Vertices) == p.A.Size() && len(root) == 0 {
			// A connected sentence: its predicate graph is the core
			// graph, searched above.
			ec.Pred = coreDec
		} else {
			pg, _ := g.Subgraph(ec.Vertices)
			pg.AddClique(root)
			_, ec.Pred, _ = tw.Treewidth(pg)
		}
		ec.Pred.RerootAt(root)
		ec.Pred.Reduce()
		c := &sh.Components[compOf[ec.Vertices[0]]]
		c.Exists = append(c.Exists, i)
	}

	for i := range sh.Components {
		c := &sh.Components[i]
		if len(c.Active) == 0 {
			continue
		}
		cg, _ := g.Subgraph(c.Active)
		for _, e := range c.Exists {
			cg.AddClique(positions(c.Active, sh.Exists[e].Interface))
		}
		width, dec, exact := tw.Treewidth(cg)
		dec.Reduce()
		c.Contract = dec
		sh.ContractWidth = max(sh.ContractWidth, width)
		sh.ContractExact = sh.ContractExact && exact
	}
	return sh
}

// members lists the vertices of set ∩ mask (all of set for a nil mask),
// ascending.
func members(set, mask []uint64) []int {
	n := 0
	for i, w := range set {
		if mask != nil {
			w &= mask[i]
		}
		n += bits.OnesCount64(w)
	}
	out := make([]int, 0, n)
	for v := range bitvec.Each(set) {
		if mask == nil || mask[v>>6]&(1<<(v&63)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// positions returns the indexes in the ascending list vs of the members
// of sub.
func positions(vs, sub []int) []int {
	out := make([]int, len(sub))
	for i, v := range sub {
		out[i] = sort.SearchInts(vs, v)
	}
	return out
}
