package engine

import (
	"math/big"
	"testing"

	"repro/internal/structure"
)

// rewindTestStructure builds a small mutable structure.
func rewindTestStructure(t *testing.T) *structure.Structure {
	t.Helper()
	sig, err := structure.NewSignature(structure.RelSym{Name: "E", Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := structure.New(sig)
	for _, e := range []string{"a", "b", "c"} {
		if _, err := b.AddElem(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddTuple("E", 0, 1); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSessionForCarriesPriorsForward: a session replaced because the
// structure's version ADVANCED adopts the settled counts as priors (the
// delta path can reconcile them forward).
func TestSessionForCarriesPriorsForward(t *testing.T) {
	b := rewindTestStructure(t)
	defer ReleaseSession(b)
	s1 := SessionFor(b)
	s1.mu.Lock()
	s1.prior = map[string]priorCount{
		"fake": {v: big.NewInt(42), snap: s1.snap},
	}
	s1.mu.Unlock()

	if err := b.AddTuple("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	s2 := SessionFor(b)
	if s2 == s1 {
		t.Fatalf("stale session not replaced")
	}
	if len(s2.prior) != 1 || s2.prior["fake"].v.Int64() != 42 {
		t.Fatalf("forward version bump dropped priors: %+v", s2.prior)
	}
}

// TestSessionForRewindDropsPriors: if the cached session's version is
// AHEAD of the structure's current version — the structure was rebuilt
// or replaced underneath the registry, e.g. by recovery tooling — the
// replacement session must NOT adopt priors: there is no append delta
// from the future back to the present, so advancing them would produce
// wrong counts.
func TestSessionForRewindDropsPriors(t *testing.T) {
	b := rewindTestStructure(t)
	defer ReleaseSession(b)
	s1 := SessionFor(b)
	s1.mu.Lock()
	s1.prior = map[string]priorCount{
		"fake": {v: big.NewInt(42), snap: s1.snap},
	}
	// Simulate the structure having been swapped for an older version:
	// the cached session believes it is far in the future.
	s1.version = b.Version() + 100
	s1.mu.Unlock()

	s2 := SessionFor(b)
	if s2 == s1 {
		t.Fatalf("stale session not replaced")
	}
	if s2.prior != nil {
		t.Fatalf("rewound session leaked priors into its successor: %+v", s2.prior)
	}
	if s2.version != b.Version() {
		t.Fatalf("replacement session version %d, want %d", s2.version, b.Version())
	}
}
