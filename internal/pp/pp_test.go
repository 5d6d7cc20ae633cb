package pp

import (
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/structure"
)

func edgeSig() *structure.Signature {
	return structure.MustSignature(structure.RelSym{Name: "E", Arity: 2})
}

func exSig() *structure.Signature {
	return structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "F", Arity: 2},
		structure.RelSym{Name: "G", Arity: 2},
	)
}

func mustPP(t *testing.T, sig *structure.Signature, lib []logic.Var, d logic.Disjunct) PP {
	t.Helper()
	p, err := FromDisjunct(sig, lib, d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func atom(rel string, vars ...logic.Var) logic.Atom { return logic.Atom{Rel: rel, Args: vars} }

// example22 builds φ(x,x',y,z) = ∃y'∃u∃v∃w (E(x,x') ∧ E(y,y') ∧ F(u,v) ∧
// G(u,w)) from Example 2.2.
func example22(t *testing.T) PP {
	t.Helper()
	return mustPP(t, exSig(),
		[]logic.Var{"x", "x'", "y", "z"},
		logic.Disjunct{
			Exist: []logic.Var{"y'", "u", "v", "w"},
			Atoms: []logic.Atom{
				atom("E", "x", "x'"),
				atom("E", "y", "y'"),
				atom("F", "u", "v"),
				atom("G", "u", "w"),
			},
		})
}

func TestExample22PairView(t *testing.T) {
	p := example22(t)
	if p.A.Size() != 8 {
		t.Fatalf("universe size = %d, want 8 (x,x',y,z,y',u,v,w)", p.A.Size())
	}
	if len(p.S) != 4 {
		t.Fatalf("|S| = %d, want 4", len(p.S))
	}
	if p.A.Database().Rel("E").Len() != 2 || p.A.Database().Rel("F").Len() != 1 || p.A.Database().Rel("G").Len() != 1 {
		t.Fatal("relation contents wrong")
	}
	// z is isolated but in the universe.
	z := p.A.ElemIndex("z")
	if z < 0 {
		t.Fatal("z missing from universe")
	}
}

// Example 2.4: the four components of Example 2.2's formula.
func TestExample24Components(t *testing.T) {
	p := example22(t)
	comps := p.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	// Classify components by their liberal names.
	var sawXX, sawY, sawZ, sawSentence bool
	for _, c := range comps {
		names := c.LibNames()
		switch {
		case len(names) == 2: // {x,x'}
			sawXX = true
			if c.IsSentence() {
				t.Fatal("ψ1(x,x') should be free")
			}
		case len(names) == 1 && names[0] == "y":
			sawY = true
			if c.A.Size() != 2 {
				t.Fatalf("ψ2 size = %d", c.A.Size())
			}
		case len(names) == 1 && names[0] == "z":
			sawZ = true
			// ψ3(z) = ⊤: no atoms.
			if c.A.NumAtoms() != 0 {
				t.Fatal("ψ3(z) should have no atoms")
			}
			if !c.IsSentence() {
				t.Fatal("ψ3(z)=⊤ has free(φ)=∅ hence is a sentence")
			}
		case len(names) == 0:
			sawSentence = true
			if c.A.Size() != 3 {
				t.Fatalf("ψ4 size = %d, want 3 (u,v,w)", c.A.Size())
			}
		}
	}
	if !sawXX || !sawY || !sawZ || !sawSentence {
		t.Fatalf("missing components: xx=%v y=%v z=%v sent=%v", sawXX, sawY, sawZ, sawSentence)
	}
}

// Example 5.8: φ̂ removes the non-liberal component {u,v,w} but keeps the
// liberal ones (including the isolated liberal z).
func TestExample58Hat(t *testing.T) {
	p := example22(t)
	h, err := p.Hat()
	if err != nil {
		t.Fatal(err)
	}
	if h.A.Size() != 5 {
		t.Fatalf("φ̂ universe = %d, want 5 (x,x',y,y',z)", h.A.Size())
	}
	if h.A.ElemIndex("u") >= 0 || h.A.ElemIndex("v") >= 0 || h.A.ElemIndex("w") >= 0 {
		t.Fatal("φ̂ should drop u,v,w")
	}
	if h.A.ElemIndex("z") < 0 {
		t.Fatal("φ̂ must keep the isolated liberal z")
	}
	if len(h.S) != 4 {
		t.Fatalf("φ̂ |S| = %d, want 4", len(h.S))
	}
	if h.A.Database().Rel("E").Len() != 2 || h.A.Database().Rel("F").Len() != 0 {
		t.Fatal("φ̂ atoms wrong")
	}
}

func TestHatRequiresLiberal(t *testing.T) {
	sig := edgeSig()
	p := mustPP(t, sig, nil, logic.Disjunct{
		Exist: []logic.Var{"u", "v"},
		Atoms: []logic.Atom{atom("E", "u", "v")},
	})
	if _, err := p.Hat(); err == nil {
		t.Fatal("Hat of a non-liberal formula should error")
	}
}

// Example 5.2: φ1(x,y) = E(x,y) and φ2(w,z) = E(w,z) are counting
// equivalent (renaming) but not comparable for logical equivalence (their
// liberal variables differ).
func TestExample52CountingEquivalence(t *testing.T) {
	sig := edgeSig()
	p1 := mustPP(t, sig, []logic.Var{"x", "y"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y")}})
	p2 := mustPP(t, sig, []logic.Var{"w", "z"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "w", "z")}})
	eq, err := CountingEquivalent(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("Example 5.2: E(x,y) and E(w,z) must be counting equivalent")
	}
	// Logical equivalence comparison requires identical liberal names.
	if _, err := LogicallyEquivalent(p1, p2); err == nil {
		t.Fatal("logical equivalence across different liberal variables should error")
	}
}

func TestCountingEquivalenceNegative(t *testing.T) {
	sig := edgeSig()
	// E(x,y) vs E(x,y) ∧ E(y,x): not counting equivalent.
	p1 := mustPP(t, sig, []logic.Var{"x", "y"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y")}})
	p2 := mustPP(t, sig, []logic.Var{"x", "y"}, logic.Disjunct{Atoms: []logic.Atom{
		atom("E", "x", "y"), atom("E", "y", "x"),
	}})
	eq, err := CountingEquivalent(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("E(x,y) vs E(x,y)∧E(y,x) must not be counting equivalent")
	}
	// Different |S| refutes immediately (Observation 5.5).
	p3 := mustPP(t, sig, []logic.Var{"x", "y", "z"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y")}})
	eq, err = CountingEquivalent(p1, p3)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("different liberal counts must not be counting equivalent")
	}
}

// Example 5.7: φ1(x,y) = E(x,y) and φ2(x,y) = ∃z (E(x,y) ∧ F(z)) are
// semi-counting equivalent but not counting equivalent.
func TestExample57SemiCounting(t *testing.T) {
	sig := structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "F", Arity: 1},
	)
	p1 := mustPP(t, sig, []logic.Var{"x", "y"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y")}})
	p2 := mustPP(t, sig, []logic.Var{"x", "y"}, logic.Disjunct{
		Exist: []logic.Var{"z"},
		Atoms: []logic.Atom{atom("E", "x", "y"), atom("F", "z")},
	})
	ce, err := CountingEquivalent(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if ce {
		t.Fatal("Example 5.7: must not be counting equivalent")
	}
	sce, err := SemiCountingEquivalent(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !sce {
		t.Fatal("Example 5.7: must be semi-counting equivalent")
	}
}

func TestCoreCollapsesRedundancy(t *testing.T) {
	sig := edgeSig()
	// ∃u,v. E(x,u) ∧ E(x,v): core should identify u and v.
	p := mustPP(t, sig, []logic.Var{"x"}, logic.Disjunct{
		Exist: []logic.Var{"u", "v"},
		Atoms: []logic.Atom{atom("E", "x", "u"), atom("E", "x", "v")},
	})
	c := p.Core()
	if c.A.Size() != 2 {
		t.Fatalf("core size = %d, want 2", c.A.Size())
	}
	if len(c.S) != 1 || c.A.ElemName(c.S[0]) != "x" {
		t.Fatal("core lost the liberal variable")
	}
}

func TestCoreKeepsLiberals(t *testing.T) {
	sig := edgeSig()
	// E(x,y) ∧ E(x,z) with all of x,y,z liberal: nothing may collapse.
	p := mustPP(t, sig, []logic.Var{"x", "y", "z"}, logic.Disjunct{
		Atoms: []logic.Atom{atom("E", "x", "y"), atom("E", "x", "z")},
	})
	c := p.Core()
	if c.A.Size() != 3 {
		t.Fatalf("core size = %d, want 3 (liberals are pinned)", c.A.Size())
	}
}

func TestEntailment(t *testing.T) {
	sig := edgeSig()
	// ψ = E(x,y) ∧ E(y,x) entails φ = E(x,y).
	phi := mustPP(t, sig, []logic.Var{"x", "y"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y")}})
	psi := mustPP(t, sig, []logic.Var{"x", "y"}, logic.Disjunct{Atoms: []logic.Atom{
		atom("E", "x", "y"), atom("E", "y", "x"),
	}})
	got, err := Entails(psi, phi)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("E(x,y)∧E(y,x) must entail E(x,y)")
	}
	got, err = Entails(phi, psi)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("E(x,y) must not entail E(x,y)∧E(y,x)")
	}
}

func TestEntailmentSentence(t *testing.T) {
	sig := edgeSig()
	// θ() = ∃u. E(u,u); ψ(x,y) = E(x,y) ∧ E(y,x)... does not entail θ.
	// ψ'(x,y) = E(x,x) does entail θ.
	lib := []logic.Var{"x", "y"}
	theta := mustPP(t, sig, lib, logic.Disjunct{
		Exist: []logic.Var{"u"},
		Atoms: []logic.Atom{atom("E", "u", "u")},
	})
	psi := mustPP(t, sig, lib, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y"), atom("E", "y", "x")}})
	psiLoop := mustPP(t, sig, lib, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "x")}})
	if got, _ := Entails(psi, theta); got {
		t.Fatal("2-cycle must not entail ∃loop")
	}
	if got, _ := Entails(psiLoop, theta); !got {
		t.Fatal("E(x,x) must entail ∃loop")
	}
}

func TestExistsComponentsAndContract(t *testing.T) {
	sig := edgeSig()
	// Path query: E(s,u) ∧ E(u,t), S = {s,t}, u quantified.
	p := mustPP(t, sig, []logic.Var{"s", "t"}, logic.Disjunct{
		Exist: []logic.Var{"u"},
		Atoms: []logic.Atom{atom("E", "s", "u"), atom("E", "u", "t")},
	})
	d := p.Core()
	ecs := ExistsComponents(d)
	if len(ecs) != 1 {
		t.Fatalf("∃-components = %d, want 1", len(ecs))
	}
	if len(ecs[0].Interface) != 2 {
		t.Fatalf("interface size = %d, want 2", len(ecs[0].Interface))
	}
	cg, svars := ContractGraph(d)
	if len(svars) != 2 {
		t.Fatalf("contract vertices = %d", len(svars))
	}
	if !cg.HasEdge(0, 1) {
		t.Fatal("contract graph must connect s and t through the ∃-component")
	}
	sh := ShapeOf(d)
	if len(sh.Exists) != 1 || !slices.Equal(sh.Exists[0].Interface, ecs[0].Interface) {
		t.Fatalf("Shape ∃-components %+v, want one with interface %v", sh.Exists, ecs[0].Interface)
	}
	if sh.ContractWidth != 1 || !sh.ContractExact {
		t.Fatalf("Shape contract width %d (exact %v), want 1", sh.ContractWidth, sh.ContractExact)
	}
}

func TestContractGraphStar(t *testing.T) {
	sig := edgeSig()
	// Star: ∃c. E(c,x1) ∧ E(c,x2) ∧ E(c,x3): contract graph = K3.
	p := mustPP(t, sig, []logic.Var{"x1", "x2", "x3"}, logic.Disjunct{
		Exist: []logic.Var{"c"},
		Atoms: []logic.Atom{atom("E", "c", "x1"), atom("E", "c", "x2"), atom("E", "c", "x3")},
	})
	d := p.Core()
	cg, _ := ContractGraph(d)
	if cg.NumEdges() != 3 {
		t.Fatalf("star contract graph edges = %d, want 3 (K3)", cg.NumEdges())
	}
	sh := ShapeOf(d)
	if len(sh.Exists) != 1 || len(sh.Exists[0].Interface) != 3 {
		t.Fatalf("Shape ∃-components %+v, want one with a 3-vertex interface", sh.Exists)
	}
	if sh.ContractWidth != 2 || !sh.ContractExact {
		t.Fatalf("Shape contract width %d (exact %v), want 2 (K3)", sh.ContractWidth, sh.ContractExact)
	}
}

func TestContractGraphDisconnectedQuantified(t *testing.T) {
	sig := edgeSig()
	// E(x,y) with both liberal plus a quantified sentence part
	// ∃u,v. E(u,v): contract graph on {x,y} has just the G[S] edge.
	p := mustPP(t, sig, []logic.Var{"x", "y"}, logic.Disjunct{
		Exist: []logic.Var{"u", "v"},
		Atoms: []logic.Atom{atom("E", "x", "y"), atom("E", "u", "v")},
	})
	// Note: cored, the sentence part collapses into the liberal edge (u,v
	// maps onto x,y), so the contract graph is a single edge.
	d := p.Core()
	cg, sv := ContractGraph(d)
	if len(sv) != 2 || !cg.HasEdge(0, 1) {
		t.Fatal("contract graph should be the edge {x,y}")
	}
	if d.A.Size() != 2 {
		t.Fatalf("core should collapse the quantified copy, size = %d", d.A.Size())
	}
	if sh := ShapeOf(d); len(sh.Exists) != 0 || sh.ContractWidth != 1 || !sh.ContractExact {
		t.Fatalf("Shape: %d ∃-components, contract width %d (exact %v), want none and 1", len(sh.Exists), sh.ContractWidth, sh.ContractExact)
	}
}

func TestConjoin(t *testing.T) {
	sig := edgeSig()
	lib := []logic.Var{"x", "y"}
	p1 := mustPP(t, sig, lib, logic.Disjunct{
		Exist: []logic.Var{"u"},
		Atoms: []logic.Atom{atom("E", "x", "u")},
	})
	p2 := mustPP(t, sig, lib, logic.Disjunct{
		Exist: []logic.Var{"u"},
		Atoms: []logic.Atom{atom("E", "u", "y")},
	})
	c, err := Conjoin(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.S) != 2 {
		t.Fatalf("conjunction |S| = %d", len(c.S))
	}
	if c.A.Size() != 4 {
		t.Fatalf("conjunction size = %d, want 4 (x,y,u~0,u~1)", c.A.Size())
	}
	if c.A.Database().Rel("E").Len() != 2 {
		t.Fatalf("conjunction tuples = %d", c.A.Database().Rel("E").Len())
	}
}

func TestConjoinIdempotentShape(t *testing.T) {
	sig := edgeSig()
	lib := []logic.Var{"x", "y"}
	p := mustPP(t, sig, lib, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y")}})
	c, err := Conjoin(p, p)
	if err != nil {
		t.Fatal(err)
	}
	// Atoms coincide (quantifier-free), so the conjunction is the formula
	// itself (the duplicate tuple is deduplicated).
	if c.A.Size() != 2 || c.A.Database().Rel("E").Len() != 1 {
		t.Fatalf("self-conjunction should collapse: size=%d tuples=%d", c.A.Size(), c.A.Database().Rel("E").Len())
	}
	eq, err := CountingEquivalent(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("φ∧φ must be counting equivalent to φ")
	}
}

func TestHomOrderMinimal(t *testing.T) {
	sig := edgeSig()
	lib := []logic.Var{"x", "y"}
	// p1 = E(x,y); p2 = E(x,y)∧E(y,x).  hom(A1→A2) exists, so p1 is
	// NOT minimal; p2 receives no hom from p1? A1 (one edge) maps into A2
	// (2-cycle) — so p2 has an incoming hom and p1 receives one from A2?
	// A2 (2-cycle) does not map into A1 (single edge, no cycle): p1 is
	// minimal.
	p1 := mustPP(t, sig, lib, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y")}})
	p2 := mustPP(t, sig, lib, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y"), atom("E", "y", "x")}})
	i, err := HomOrderMinimal([]PP{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 {
		t.Fatalf("minimal = %d, want 0 (single edge receives no hom from the 2-cycle)", i)
	}
}

func TestToDisjunctRoundTrip(t *testing.T) {
	p := example22(t)
	d := p.ToDisjunct()
	if len(d.Exist) != 4 || len(d.Atoms) != 4 {
		t.Fatalf("round trip: exist=%d atoms=%d", len(d.Exist), len(d.Atoms))
	}
	p2, err := FromDisjunct(p.A.Signature(), []logic.Var{"x", "x'", "y", "z"}, d)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := LogicallyEquivalent(p, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("round trip must preserve logical equivalence")
	}
}

func TestInvariantKeyBuckets(t *testing.T) {
	sig := edgeSig()
	p1 := mustPP(t, sig, []logic.Var{"x", "y"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "x", "y")}})
	p2 := mustPP(t, sig, []logic.Var{"w", "z"}, logic.Disjunct{Atoms: []logic.Atom{atom("E", "w", "z")}})
	if p1.InvariantKey() != p2.InvariantKey() {
		t.Fatal("renaming-equivalent formulas must share the invariant key")
	}
}
