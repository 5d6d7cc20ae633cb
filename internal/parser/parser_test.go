package parser

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/structure"
)

func TestParseSimpleQuery(t *testing.T) {
	q, err := ParseQuery("phi(x,y) := E(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "phi" || len(q.Lib) != 2 {
		t.Fatalf("query = %v", q)
	}
	if _, ok := q.F.(logic.Atom); !ok {
		t.Fatalf("formula = %T", q.F)
	}
}

func TestParseBareFormula(t *testing.T) {
	q, err := ParseQuery("E(x,y) & E(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Lib) != 3 {
		t.Fatalf("lib = %v, want free vars x,y,z", q.Lib)
	}
	if q.Lib[0] != "x" || q.Lib[1] != "y" || q.Lib[2] != "z" {
		t.Fatalf("lib order = %v", q.Lib)
	}
}

func TestPrecedence(t *testing.T) {
	// a & b | c & d parses as (a&b) | (c&d).
	q, err := ParseQuery("E(x,x) & F(x) | G(x) & H(x)")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := q.F.(logic.Or)
	if !ok {
		t.Fatalf("top = %T, want Or", q.F)
	}
	if _, ok := or.L.(logic.And); !ok {
		t.Fatalf("left = %T, want And", or.L)
	}
}

func TestExistsScope(t *testing.T) {
	// exists u. E(x,u) & E(u,y) — the body spans the whole conjunction.
	q, err := ParseQuery("q(x,y) := exists u. E(x,u) & E(u,y)")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := q.F.(logic.Exists)
	if !ok {
		t.Fatalf("top = %T, want Exists", q.F)
	}
	if _, ok := ex.Body.(logic.And); !ok {
		t.Fatalf("body = %T, want And", ex.Body)
	}
	// ...but not past a disjunction.
	q, err = ParseQuery("q(x) := exists u. E(x,u) | E(x,x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.F.(logic.Or); !ok {
		t.Fatalf("top = %T, want Or (quantifier must not span '|')", q.F)
	}
}

func TestExistsMultiVar(t *testing.T) {
	q, err := ParseQuery("q() := exists a, b. E(a,b)")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := q.F.(logic.Exists)
	if !ok || ex.V != "a" {
		t.Fatalf("formula = %v", q.F)
	}
	if inner, ok := ex.Body.(logic.Exists); !ok || inner.V != "b" {
		t.Fatalf("inner = %v", ex.Body)
	}
}

func TestParens(t *testing.T) {
	q, err := ParseQuery("q(x) := (E(x,x) | F(x)) & G(x)")
	if err != nil {
		t.Fatal(err)
	}
	and, ok := q.F.(logic.And)
	if !ok {
		t.Fatalf("top = %T, want And", q.F)
	}
	if _, ok := and.L.(logic.Or); !ok {
		t.Fatalf("left = %T, want Or", and.L)
	}
}

func TestTrueLiteral(t *testing.T) {
	q, err := ParseQuery("q(x) := true")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.F.(logic.Truth); !ok {
		t.Fatalf("formula = %T", q.F)
	}
}

func TestUnicodeConnectives(t *testing.T) {
	q, err := ParseQuery("q(x,y) := E(x,y) ∧ E(y,x) ∨ E(x,x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.F.(logic.Or); !ok {
		t.Fatalf("top = %T", q.F)
	}
}

func TestComments(t *testing.T) {
	q, err := ParseQuery("q(x) := E(x,x) % trailing comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "q" {
		t.Fatal("comment broke parse")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"q(x) :=",
		"q(x) := E(x",
		"q(x) := E()",
		"q(x) := & E(x,x)",
		"q(x) := exists . E(x,x)",
		"q(x) := E(x,x) extra",
		"q(x := E(x,x)",
		"q(x,x) := E(x,x)",         // duplicate liberal
		"q(y) := E(x,y)",           // free var not liberal
		"q(x) := exists x. E(x,x)", // liberal quantified
		"q(x) := :",
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) should fail", src)
		}
	}
}

func TestParseErrorsHavePosition(t *testing.T) {
	_, err := ParseQuery("q(x) := E(x,\n  ?)")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks position: %v", err)
	}
}

func TestParseStructureInferred(t *testing.T) {
	s, err := ParseStructure(`
		% a small structure
		universe a, b, c, d.
		E(a,b). E(b,c)
		F(d).
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 4 {
		t.Fatalf("size = %d, want 4", s.Size())
	}
	if s.Rel("E").Len() != 2 || s.Rel("F").Len() != 1 {
		t.Fatal("tuples wrong")
	}
	if ar, _ := s.Signature().Arity("E"); ar != 2 {
		t.Fatal("inferred arity wrong")
	}
}

func TestParseStructureAgainstSignature(t *testing.T) {
	sig := structure.MustSignature(structure.RelSym{Name: "E", Arity: 2})
	if _, err := ParseStructure("E(a,b,c).", sig); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if _, err := ParseStructure("G(a).", sig); err == nil {
		t.Fatal("unknown relation should fail")
	}
	s, err := ParseStructure("E(a,b).", sig)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Signature().Equal(sig) {
		t.Fatal("signature not preserved")
	}
}

func TestParseStructureErrors(t *testing.T) {
	if _, err := ParseStructure("", nil); err == nil {
		t.Fatal("empty structure should fail validation")
	}
	if _, err := ParseStructure("E(a,b). E(c).", nil); err == nil {
		t.Fatal("inconsistent arity should fail")
	}
	if _, err := ParseStructure("E(a,b", nil); err == nil {
		t.Fatal("unterminated fact should fail")
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	srcs := []string{
		"phi(w,x,y,z) := E(x,y) & (E(w,x) | E(y,z) & E(z,z))",
		"q(x) := exists u, v. E(x,u) & E(u,v)",
		"q(x,y) := E(x,y) | E(y,x) | E(x,x)",
	}
	for _, src := range srcs {
		q1, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := ParseQuery(q1.String())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", q1.String(), err)
		}
		if len(q1.Lib) != len(q2.Lib) || len(q1.Disjuncts()) != len(q2.Disjuncts()) {
			t.Fatalf("round trip changed query shape: %v vs %v", q1, q2)
		}
	}
}

// TestParseQueryConcurrent parses from several goroutines at once — the
// token slices come from a shared pool — and requires every query to
// print as a serial parse's does, errors included.
func TestParseQueryConcurrent(t *testing.T) {
	srcs := []string{
		"phi(x,y) := E(x,y)",
		"q(x) := exists u, v. E(x,u) & E(u,v) & E(v,x)",
		"p(s,t) := E(s,t) | (exists a. E(s,a) & E(a,t)) | E(t,s)",
		"E(x,y) & R(y,z,z)",
		"bad(x) := E(x,",
		"q(x) := E(x,y) ? E(y,x)",
	}
	show := func(src string) string {
		q, err := ParseQuery(src)
		if err != nil {
			return "error: " + err.Error()
		}
		return q.String()
	}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = show(src)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (k + w) % len(srcs)
				if got := show(srcs[i]); got != want[i] {
					t.Errorf("parse of %q: %s, serially %s", srcs[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
