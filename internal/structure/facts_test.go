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
