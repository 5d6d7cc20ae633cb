package pp

import (
	"math/bits"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/graph"
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
// callers pass one; the decompositions are sound for any formula.  Every
// vertex list of the shape is carved from one buffer, sized by counting
// bits first, and the graphs decomposed below the core graph are built
// in one scratch graph in turn.
func ShapeOf(p PP) *Shape {
	g := p.Graph()
	n, w := p.A.Size(), (p.A.Size()+63)/64
	vecs := make([]uint64, 3*w)
	lib, free, iface := vecs[:w:w], vecs[w:2*w:2*w], vecs[2*w:]
	for _, v := range p.S {
		lib[v>>6] |= 1 << (v & 63)
	}
	for _, v := range p.FreeElems() {
		free[v>>6] |= 1 << (v & 63)
	}
	sh := &Shape{Formula: p, ContractWidth: min(0, len(p.S)-1), ContractExact: true}
	var coreDec *tw.Decomposition
	sh.CoreWidth, coreDec, sh.CoreExact = tw.Treewidth(g)

	// The Gaifman components, and the ∃-components: the components of
	// the quantified vertices, each joined by the liberal vertices
	// adjacent to it (its interface).
	sets := g.Split(g.All())
	quantified := g.All()
	for i, word := range lib {
		quantified[i] &^= word
	}
	esets := g.Split(quantified)
	size := len(esets)
	for _, set := range sets {
		size += count(set, nil) + count(set, lib) + count(set, free)
	}
	for _, set := range esets {
		clear(iface)
		for v := range bitvec.Each(set) {
			bitvec.Or(iface, g.Row(v))
		}
		bitvec.And(iface, lib)
		bitvec.Or(set, iface)
		size += count(set, nil) + count(iface, nil)
	}
	// The lists, then the component of each vertex and each component's
	// ∃-component count.
	buf := make([]int, size+n+len(sets))
	compOf, nExists := buf[size:size+n], buf[size+n:]
	buf = buf[:size]

	sh.Components = make([]ComponentShape, len(sets))
	for i, set := range sets {
		c := &sh.Components[i]
		c.Vertices, c.Lib, c.Active = members(&buf, set, nil), members(&buf, set, lib), members(&buf, set, free)
		for _, v := range c.Vertices {
			compOf[v] = i
		}
	}
	for _, set := range esets {
		nExists[compOf[first(set)]]++
	}
	for i := range sh.Components {
		k := nExists[i]
		sh.Components[i].Exists, buf = buf[:0:k], buf[k:]
	}

	var sg graph.Graph // the scratch graph every decomposition below is searched on
	var ints []int     // positions in it of the clique vertices at hand
	sh.Exists = make([]ExistsComponent, len(esets))
	for i, set := range esets {
		ec := &sh.Exists[i]
		ec.Vertices, ec.Interface = members(&buf, set, nil), members(&buf, set, lib)
		root := positions(ints[:0], ec.Vertices, ec.Interface)
		if len(ec.Vertices) == n && len(root) == 0 {
			// A connected sentence: its predicate graph is the core
			// graph, searched above.
			ec.Pred = coreDec
		} else {
			g.SubgraphInto(&sg, ec.Vertices).AddClique(root)
			_, ec.Pred, _ = tw.Treewidth(&sg)
		}
		ec.Pred.RerootAt(root)
		ec.Pred.Reduce()
		ints = root
		c := &sh.Components[compOf[ec.Vertices[0]]]
		c.Exists = append(c.Exists, i)
	}

	for i := range sh.Components {
		c := &sh.Components[i]
		if len(c.Active) == 0 {
			continue
		}
		g.SubgraphInto(&sg, c.Active)
		for _, e := range c.Exists {
			ints = positions(ints[:0], c.Active, sh.Exists[e].Interface)
			sg.AddClique(ints)
		}
		width, dec, exact := tw.Treewidth(&sg)
		dec.Reduce()
		c.Contract = dec
		sh.ContractWidth = max(sh.ContractWidth, width)
		sh.ContractExact = sh.ContractExact && exact
	}
	return sh
}

// count returns |set ∩ mask| (|set| for a nil mask).
func count(set, mask []uint64) int {
	n := 0
	for i, w := range set {
		if mask != nil {
			w &= mask[i]
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// first returns the smallest member of the non-empty set.
func first(set []uint64) int {
	for i, w := range set {
		if w != 0 {
			return i<<6 | bits.TrailingZeros64(w)
		}
	}
	return -1
}

// members lists the vertices of set ∩ mask (all of set for a nil mask),
// ascending, carved from the front of *buf.
func members(buf *[]int, set, mask []uint64) []int {
	k := count(set, mask)
	out := (*buf)[:0:k]
	*buf = (*buf)[k:]
	for v := range bitvec.Each(set) {
		if mask == nil || mask[v>>6]&(1<<(v&63)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// positions appends to dst the indexes in the ascending list vs of the
// members of sub.
func positions(dst, vs, sub []int) []int {
	for _, v := range sub {
		dst = append(dst, sort.SearchInts(vs, v))
	}
	return dst
}
