package eptrans_test

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/engine"
	. "repro/internal/eptrans"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	. "repro/internal/reduce"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Failure-injection and error-path coverage for the reduction machinery.

func TestCountPPViaEPRejectsForeignFormula(t *testing.T) {
	c := compile(t, "q(x,y) := E(x,y) | E(y,x)")
	foreign, err := pp.FromDisjunct(edgeSig(), []logic.Var{"x", "y"},
		parser.MustQuery("p(x,y) := E(x,x)").Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(edgeSig(), 3, 0.5, 1)
	if _, err := CountPPViaEP(c, foreign, b, epOracleFor(c)); err == nil {
		t.Fatal("formula outside φ⁺ must be rejected")
	}
}

func TestReductionsRejectEmptyStructures(t *testing.T) {
	c := compile(t, "q(x,y) := E(x,y)")
	empty := structure.New(edgeSig())
	if _, err := CountEPViaPP(c, empty, fptCounter); err == nil {
		t.Fatal("empty structure must be rejected (forward)")
	}
	if _, err := CountPPViaEP(c, c.Plus[0], empty, epOracleFor(c)); err == nil {
		t.Fatal("empty structure must be rejected (backward)")
	}
}

func TestPeelClassArgumentValidation(t *testing.T) {
	p, err := pp.FromDisjunct(edgeSig(), []logic.Var{"x"},
		parser.MustQuery("p(x) := E(x,x)").Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(edgeSig(), 2, 0.5, 1)
	oracle := func(*structure.Structure) (*big.Int, error) { return big.NewInt(0), nil }
	if _, err := PeelClass([]pp.PP{p}, []*big.Int{big.NewInt(1), big.NewInt(2)}, 0, b, oracle); err == nil {
		t.Fatal("coefficient length mismatch must error")
	}
	if _, err := PeelClass([]pp.PP{p}, []*big.Int{big.NewInt(1)}, 5, b, oracle); err == nil {
		t.Fatal("out-of-range target must error")
	}
}

func TestPeelClassPropagatesOracleError(t *testing.T) {
	p, _ := pp.FromDisjunct(edgeSig(), []logic.Var{"x"},
		parser.MustQuery("p(x) := E(x,x)").Disjuncts()[0])
	b := workload.RandomStructure(edgeSig(), 2, 0.5, 1)
	boom := fmt.Errorf("boom")
	oracle := func(*structure.Structure) (*big.Int, error) { return nil, boom }
	_, err := PeelClass([]pp.PP{p}, []*big.Int{big.NewInt(1)}, 0, b, oracle)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("oracle error not propagated: %v", err)
	}
}

func TestExactDivDetectsCorruptOracle(t *testing.T) {
	// An oracle returning wrong (non-divisible) sums must surface as an
	// error, not a silent wrong count.
	c := compile(t, "q(x,y) := E(x,y) | E(y,x)")
	b := workload.RandomStructure(edgeSig(), 3, 0.5, 2)
	calls := 0
	corrupt := func(y *structure.Structure) (*big.Int, error) {
		calls++
		v, err := CountEPViaPP(c, y, fptCounter)
		if err != nil {
			return nil, err
		}
		// Corrupt every second answer.
		if calls%2 == 0 {
			v = new(big.Int).Add(v, big.NewInt(1))
		}
		return v, nil
	}
	sawError := false
	for _, psi := range c.Plus {
		if _, err := CountPPViaEP(c, psi, b, corrupt); err != nil {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("corrupted oracle should produce at least one detection error")
	}
}

func TestDistinguishPairRejectsEquivalent(t *testing.T) {
	// Semi-counting-equivalent formulas have no distinguishing structure;
	// the search must terminate with an error, not loop.
	p1, _ := pp.FromDisjunct(edgeSig(), []logic.Var{"x", "y"},
		parser.MustQuery("p(x,y) := E(x,y)").Disjuncts()[0])
	p2, _ := pp.FromDisjunct(edgeSig(), []logic.Var{"w", "z"},
		parser.MustQuery("p(w,z) := E(w,z)").Disjuncts()[0])
	// Same vocabulary; counting equivalent up to renaming.
	if _, err := DistinguishPair(p1, p2); err == nil {
		t.Fatal("equivalent formulas must not yield a distinguishing structure")
	}
}

// The distinguishing search counts on throwaway candidates in sessions
// of their own: a search that tries every candidate (an equivalent pair
// has no witness) leaves the process-wide session registry as it found
// it, so it can evict no serving session.
func TestDistinguishPairLeavesSessionRegistryAlone(t *testing.T) {
	p1, _ := pp.FromDisjunct(edgeSig(), []logic.Var{"x", "y"},
		parser.MustQuery("p(x,y) := E(x,y)").Disjuncts()[0])
	p2, _ := pp.FromDisjunct(edgeSig(), []logic.Var{"w", "z"},
		parser.MustQuery("p(w,z) := E(w,z)").Disjuncts()[0])
	before := engine.SessionStats()
	if _, err := DistinguishPair(p1, p2); err == nil {
		t.Fatal("equivalent formulas must not yield a distinguishing structure")
	}
	if after := engine.SessionStats(); after.Sessions != before.Sessions || after.Evictions != before.Evictions {
		t.Fatalf("the search changed the session registry: %+v → %+v", before, after)
	}
}

func TestCompileTooManyDisjuncts(t *testing.T) {
	// (a|b) repeated beyond the 2^s cap: 21 disjuncts of pairwise
	// inequivalent loops cannot be built easily; instead check that the
	// ie cap error propagates through Compile using distinct relations.
	var rels []structure.RelSym
	var parts []string
	for i := 0; i < ie.MaxDisjuncts+1; i++ {
		rels = append(rels, structure.RelSym{Name: fmt.Sprintf("R%02d", i), Arity: 1})
		parts = append(parts, fmt.Sprintf("R%02d(x)", i))
	}
	sig := structure.MustSignature(rels...)
	src := "q(x) := " + strings.Join(parts, " | ")
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(q, sig); err == nil {
		t.Fatal("disjunct-cap overflow must error")
	}
}

func TestMinimizeEmptyInput(t *testing.T) {
	if _, err := Minimize(nil); err == nil {
		t.Fatal("empty minimize must error")
	}
}

func TestSentenceHoldsBasics(t *testing.T) {
	c := compile(t, "q(x) := E(x,x) | exists u, v. E(u,v) & E(v,u)")
	if len(c.Sentences) != 1 {
		t.Fatalf("sentences = %d", len(c.Sentences))
	}
	th := c.Sentences[0]
	yes := parser.MustStructure("E(1,2). E(2,1).", edgeSig())
	no := parser.MustStructure("E(1,2). E(2,3).", edgeSig())
	if !SentenceHolds(th, yes) {
		t.Fatal("2-cycle sentence should hold")
	}
	if SentenceHolds(th, no) {
		t.Fatal("2-cycle sentence should fail on a path")
	}
}
