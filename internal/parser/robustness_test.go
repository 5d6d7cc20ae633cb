package parser

import (
	"math/rand"
	"strings"
	"testing"
)

// The parser must never panic, whatever the input: errors only.
func TestParserNeverPanics(t *testing.T) {
	pieces := []string{
		"q", "(", ")", ",", ".", "&", "|", ":=", "exists", "true",
		"E", "x", "y", "∧", "∨", "universe", "%comment\n", "'", "_",
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		n := rng.Intn(12)
		for j := 0; j < n; j++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			if rng.Intn(3) == 0 {
				b.WriteByte(' ')
			}
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseQuery(%q) panicked: %v", src, r)
				}
			}()
			_, _ = ParseQuery(src)
		}()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseStructure(%q) panicked: %v", src, r)
				}
			}()
			_, _ = ParseStructure(src, nil)
		}()
	}
}

// Structure serialization must round-trip through the parser.
func TestFactsRoundTripThroughParser(t *testing.T) {
	src := `
		universe a, b, c, lonely.
		E(a,b). E(b,c). E(c,a). F(a).
	`
	s1, err := ParseStructure(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.FactsString()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseStructure(out, s1.Signature())
	if err != nil {
		t.Fatalf("reparse failed: %v\nserialized:\n%s", err, out)
	}
	if s2.Size() != s1.Size() || s2.NumTuples() != s1.NumTuples() {
		t.Fatal("round trip changed the structure")
	}
	for _, r := range s1.Signature().Rels() {
		s1.ForEachTuple(r.Name, func(tp []int) bool {
			names := make([]string, len(tp))
			for i, v := range tp {
				names[i] = s1.ElemName(v)
			}
			idx := make([]int, len(names))
			for i, nm := range names {
				idx[i] = s2.ElemIndex(nm)
			}
			if !s2.HasTuple(r.Name, idx) {
				t.Fatalf("tuple %s(%v) lost in round trip", r.Name, names)
			}
			return true
		})
	}
}
