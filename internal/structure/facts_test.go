package structure

import (
	"strings"
	"testing"
)

func TestWriteFactsRoundTripShape(t *testing.T) {
	s := New(twoRelSig())
	s.EnsureElem("isolated")
	_ = s.AddFact("E", "a", "b")
	_ = s.AddFact("F", "a")
	out, err := s.FactsString()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"universe isolated, a, b.", "E(a,b).", "F(a)."} {
		if !strings.Contains(out, want) {
			t.Fatalf("serialization missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFactsRejectsFancyNames(t *testing.T) {
	s := New(edgeSig())
	_ = s.AddFact("E", "(a,b)", "c")
	if _, err := s.FactsString(); err == nil {
		t.Fatal("non-identifier element names should be rejected")
	}
}

func TestNormalizedSerializable(t *testing.T) {
	a := New(edgeSig())
	_ = a.AddFact("E", "x", "y")
	b := New(edgeSig())
	_ = b.AddFact("E", "u", "v")
	prod, err := Product(a, b) // product names contain parens/commas
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prod.FactsString(); err == nil {
		t.Fatal("product names should not serialize directly")
	}
	norm := prod.Normalized()
	out, err := norm.FactsString()
	if err != nil {
		t.Fatalf("normalized structure should serialize: %v", err)
	}
	if norm.Size() != prod.Size() || norm.Rel("E").Len() != prod.Rel("E").Len() {
		t.Fatal("Normalized changed the structure")
	}
	if !strings.Contains(out, "universe e0") {
		t.Fatalf("unexpected serialization:\n%s", out)
	}
}
