package logic

import (
	"strings"
	"testing"
)

func atom(rel string, vars ...Var) Atom { return Atom{Rel: rel, Args: vars} }

func TestFreeVars(t *testing.T) {
	// φ = E(x,y) ∧ ∃z. E(y,z)
	f := And{atom("E", "x", "y"), Exists{"z", atom("E", "y", "z")}}
	fv := FreeVars(f)
	if len(fv) != 2 || !fv["x"] || !fv["y"] {
		t.Fatalf("FreeVars = %v", fv)
	}
	av := AllVars(f)
	if len(av) != 3 || !av["z"] {
		t.Fatalf("AllVars = %v", av)
	}
}

func TestFreeVarsShadowing(t *testing.T) {
	// ∃x. E(x,y) ∧ x free outside? No: E(x,z) under second ∃x.
	f := And{Exists{"x", atom("E", "x", "y")}, atom("E", "x", "z")}
	fv := FreeVars(f)
	if !fv["x"] || !fv["y"] || !fv["z"] {
		t.Fatalf("FreeVars = %v (x occurs free in right conjunct)", fv)
	}
}

func TestInferSignature(t *testing.T) {
	f := And{atom("E", "x", "y"), atom("F", "x")}
	sig, err := InferSignature(f)
	if err != nil {
		t.Fatal(err)
	}
	if sig["E"] != 2 || sig["F"] != 1 {
		t.Fatalf("sig = %v", sig)
	}
	bad := And{atom("E", "x", "y"), atom("E", "x")}
	if _, err := InferSignature(bad); err == nil {
		t.Fatal("conflicting arity should error")
	}
}

func TestQueryValidation(t *testing.T) {
	f := atom("E", "x", "y")
	if _, err := NewQuery("q", []Var{"x"}, f); err == nil {
		t.Fatal("free variable outside liberal list should error")
	}
	if _, err := NewQuery("q", []Var{"x", "x", "y"}, f); err == nil {
		t.Fatal("duplicate liberal variable should error")
	}
	if _, err := NewQuery("q", []Var{"x", "y", "z"}, Exists{"z", atom("E", "x", "z")}); err == nil {
		t.Fatal("liberal+quantified variable should error")
	}
	q, err := NewQuery("q", []Var{"x", "y", "z"}, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Lib) != 3 {
		t.Fatal("Lib wrong")
	}
}

func TestDisjunctsAtomOrTruth(t *testing.T) {
	q := MustQuery("q", []Var{"x", "y"}, atom("E", "x", "y"))
	ds := q.Disjuncts()
	if len(ds) != 1 || len(ds[0].Atoms) != 1 || len(ds[0].Exist) != 0 {
		t.Fatalf("ds = %v", ds)
	}
	qt := MustQuery("q", []Var{"x"}, Truth{})
	ds = qt.Disjuncts()
	if len(ds) != 1 || len(ds[0].Atoms) != 0 {
		t.Fatalf("truth ds = %v", ds)
	}
}

// Example 4.1's first step: E(x,y) ∧ (E(w,x) ∨ (E(y,z) ∧ E(z,z))) expands
// to two disjuncts.
func TestDisjunctsExample41(t *testing.T) {
	f := And{
		atom("E", "x", "y"),
		Or{
			atom("E", "w", "x"),
			And{atom("E", "y", "z"), atom("E", "z", "z")},
		},
	}
	q := MustQuery("phi", []Var{"w", "x", "y", "z"}, f)
	ds := q.Disjuncts()
	if len(ds) != 2 {
		t.Fatalf("got %d disjuncts, want 2", len(ds))
	}
	if len(ds[0].Atoms) != 2 {
		t.Fatalf("first disjunct atoms = %v", ds[0].Atoms)
	}
	if len(ds[1].Atoms) != 3 {
		t.Fatalf("second disjunct atoms = %v", ds[1].Atoms)
	}
}

func TestDisjunctsQuantifierRenaming(t *testing.T) {
	// (∃u. E(x,u)) ∧ (∃u. E(u,y)): the two u's must not collide.
	f := And{
		Exists{"u", atom("E", "x", "u")},
		Exists{"u", atom("E", "u", "y")},
	}
	q := MustQuery("q", []Var{"x", "y"}, f)
	ds := q.Disjuncts()
	if len(ds) != 1 {
		t.Fatalf("got %d disjuncts", len(ds))
	}
	d := ds[0]
	if len(d.Exist) != 2 {
		t.Fatalf("exist vars = %v", d.Exist)
	}
	if d.Exist[0] == d.Exist[1] {
		t.Fatal("quantified variables not renamed apart")
	}
	// Each atom must use its own renamed variable.
	if d.Atoms[0].Args[1] == d.Atoms[1].Args[0] {
		t.Fatal("atoms share a bound variable after renaming")
	}
}

func TestDisjunctsVacuousQuantifier(t *testing.T) {
	// ∃u. E(x,y): u does not occur; must be dropped.
	f := Exists{"u", atom("E", "x", "y")}
	q := MustQuery("q", []Var{"x", "y"}, f)
	ds := q.Disjuncts()
	if len(ds) != 1 || len(ds[0].Exist) != 0 {
		t.Fatalf("vacuous quantifier not dropped: %v", ds)
	}
}

func TestDisjunctsDistribution(t *testing.T) {
	// (A ∨ B) ∧ (C ∨ D) → 4 disjuncts.
	f := And{
		Or{atom("E", "x", "x"), atom("F", "x")},
		Or{atom("G", "x"), atom("H", "x")},
	}
	q := MustQuery("q", []Var{"x"}, f)
	if ds := q.Disjuncts(); len(ds) != 4 {
		t.Fatalf("got %d disjuncts, want 4", len(ds))
	}
}

func TestDisjunctsQuantifierOverOr(t *testing.T) {
	// ∃u. (E(x,u) ∨ F(u)) → two disjuncts, each with its own u.
	f := Exists{"u", Or{atom("E", "x", "u"), atom("F", "u")}}
	q := MustQuery("q", []Var{"x"}, f)
	ds := q.Disjuncts()
	if len(ds) != 2 {
		t.Fatalf("got %d disjuncts", len(ds))
	}
	for _, d := range ds {
		if len(d.Exist) != 1 {
			t.Fatalf("disjunct %v should have one quantified variable", d)
		}
	}
}

func TestConjDisjExist(t *testing.T) {
	if _, ok := Conj().(Truth); !ok {
		t.Fatal("empty Conj should be Truth")
	}
	c := Conj(atom("E", "x", "y"), atom("F", "x"), atom("G", "y"))
	if Atoms(c)[0].Rel != "E" || len(Atoms(c)) != 3 {
		t.Fatalf("Conj wrong: %v", c)
	}
	d := Disj(atom("E", "x", "y"), atom("F", "x"))
	if _, ok := d.(Or); !ok {
		t.Fatal("Disj should be Or")
	}
	e := Exist([]Var{"a", "b"}, atom("E", "a", "b"))
	if ex, ok := e.(Exists); !ok || ex.V != "a" {
		t.Fatalf("Exist wrong: %v", e)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty Disj should panic")
		}
	}()
	Disj()
}

func TestStringRendering(t *testing.T) {
	q := MustQuery("phi", []Var{"x", "y"}, Exists{"z", And{atom("E", "x", "z"), atom("E", "z", "y")}})
	s := q.String()
	for _, want := range []string{"phi(x,y)", "exists z", "E(x,z)", "&"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	d := Disjunct{Exist: []Var{"u"}, Atoms: []Atom{atom("E", "x", "u")}}
	if !strings.Contains(d.String(), "exists u.") {
		t.Fatalf("Disjunct.String() = %q", d.String())
	}
	empty := Disjunct{}
	if empty.String() != "true" {
		t.Fatalf("empty disjunct = %q", empty.String())
	}
}
