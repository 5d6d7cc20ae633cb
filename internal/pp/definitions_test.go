package pp

// The definitions of Section 2.4 as first written, on graph.Graph with
// vertex lists: the oracle the derived Shape is checked against
// (shape_test.go).  They keep no production code alive.

import (
	"repro/internal/graph"
	"repro/internal/hom"
)

// GaifmanGraph returns the Gaifman graph of p (Section 2.1): vertices
// are A's elements, edges join elements co-occurring in a tuple.
func GaifmanGraph(p PP) *graph.Graph {
	g := graph.New(p.A.Size())
	sig := p.A.Signature()
	for ri := 0; ri < sig.NumRels(); ri++ {
		ar := sig.Rel(ri).Arity
		for t := p.A.Args(ri); len(t) > 0; t = t[ar:] {
			for i := 0; i < ar; i++ {
				for j := i + 1; j < ar; j++ {
					g.AddEdge(int(t[i]), int(t[j]))
				}
			}
		}
	}
	return g
}

// ExistsComponents returns the ∃-components of the *cored* formula d
// (call Core first; the definition in Section 2.4 is on the core): each
// component of G[D∖S] followed by its interface.  Pred is left nil.
func ExistsComponents(d PP) []ExistsComponent {
	g := GaifmanGraph(d)
	inS := d.sSet()
	var quantified []int
	for v := 0; v < d.A.Size(); v++ {
		if !inS[v] {
			quantified = append(quantified, v)
		}
	}
	sub, old := g.Subgraph(quantified)
	var out []ExistsComponent
	for _, c := range sub.Components() {
		var verts []int
		for _, nv := range c {
			verts = append(verts, old[nv])
		}
		ifaceSet := make(map[int]bool)
		for _, v := range verts {
			for _, u := range g.Neighbors(v) {
				if inS[u] {
					ifaceSet[u] = true
				}
			}
		}
		var iface []int
		for u := range ifaceSet {
			iface = append(iface, u)
		}
		iface = hom.SortElems(iface)
		out = append(out, ExistsComponent{
			Vertices:  append(hom.SortElems(verts), iface...),
			Interface: iface,
		})
	}
	return out
}

// ContractGraph returns contract(A,S) of the *cored* formula d: the graph
// on S obtained from G[S] by adding an edge between any two liberal
// vertices appearing together in an ∃-component (Section 2.4).  The
// returned graph's vertex i corresponds to d.S[i]; the mapping is also
// returned.
func ContractGraph(d PP) (*graph.Graph, []int) {
	g := GaifmanGraph(d)
	posOf := make(map[int]int, len(d.S))
	for i, v := range d.S {
		posOf[v] = i
	}
	cg := graph.New(len(d.S))
	for i, v := range d.S {
		for _, u := range g.Neighbors(v) {
			if j, ok := posOf[u]; ok && j > i {
				cg.AddEdge(i, j)
			}
		}
	}
	for _, ec := range ExistsComponents(d) {
		idx := make([]int, 0, len(ec.Interface))
		for _, v := range ec.Interface {
			idx = append(idx, posOf[v])
		}
		cg.AddClique(idx)
	}
	return cg, append([]int(nil), d.S...)
}
