package parser

import (
	"testing"

	"repro/internal/structure"
)

// Native fuzz targets: the parsers must neither crash nor hang on
// adversarial inputs, and accepted inputs must satisfy basic
// round-trip invariants.  CI runs each for a short smoke window
// (go test -fuzz ... -fuzztime 10s); `go test` alone replays the
// corpus seeds as regular tests.

func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"phi(x,y) := E(x,y)",
		"q(w,x,y,z) := E(x,y) & (E(w,x) | E(y,z) & E(z,z))",
		"p(a) := exists u, v. E(a,u) & E(u,v)",
		"p() := true",
		"q(x) := exists x. E(x,x)",
		"f(x,y) := R(x,y,z)",
		"phi(x := E",
		"q(x) :=",
		"(((((",
		"q(x) := exists . E(x,x)",
		"\x00\xff",
		"q(é,世) := E(é,世)",
	} {
		f.Add(seed)
	}
	for _, tc := range multiByteInputs {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		// Accepted queries must render and re-parse to an accepted query.
		rendered := q.String()
		if _, err := ParseQuery(rendered); err != nil {
			t.Fatalf("accepted query %q renders as %q which fails to re-parse: %v", src, rendered, err)
		}
	})
}

func FuzzParseStructure(f *testing.F) {
	for _, seed := range []string{
		"E(a,b). E(b,c). E(c,a).",
		"universe a, b, c. F(a)",
		"universe x.",
		"E(a,b) E(b,a)",
		"R(a,b,c). R(a,a,a).",
		"E(a,b). E(a,b,c).",
		"universe",
		"E(",
		".",
		"\x00",
		"loop(α). loop(α).",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseStructure(src, nil)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseStructure accepted %q but Validate fails: %v", src, err)
		}
		// Serializable structures must survive a facts round trip.
		facts, err := s.FactsString()
		if err != nil {
			return // non-identifier element names are legitimately unserializable
		}
		s2, err := ParseStructure(facts, s.Signature())
		if err != nil {
			t.Fatalf("round trip of %q failed to re-parse %q: %v", src, facts, err)
		}
		if !structure.Equal(s, s2) {
			t.Fatalf("round trip of %q changed the structure:\n%v\nvs\n%v", src, s, s2)
		}
	})
}
