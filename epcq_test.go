package epcq_test

import (
	"math/big"
	"testing"

	epcq "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eptrans"
)

func TestQuickstartFlow(t *testing.T) {
	q, err := epcq.ParseQuery("triangles(x,y,z) := E(x,y) & E(y,z) & E(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := epcq.ParseStructure("E(a,b). E(b,c). E(c,a). E(b,a). E(c,b). E(a,c).", nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := epcq.Count(q, b)
	if err != nil {
		t.Fatal(err)
	}
	// K3 symmetric: ordered triangles = 3! = 6.
	if n.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("triangles = %v, want 6", n)
	}
}

func TestCounterReuse(t *testing.T) {
	q := epcq.MustParseQuery("q(x,y) := E(x,y) | E(y,x)")
	sig, err := epcq.InferSignature(q)
	if err != nil {
		t.Fatal(err)
	}
	c, err := epcq.NewCounter(q, sig)
	if err != nil {
		t.Fatal(err)
	}
	b1 := epcq.MustParseStructure("E(a,b).", sig)
	b2 := epcq.MustParseStructure("E(a,b). E(b,a).", sig)
	n1, err := c.Count(b1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := c.Count(b2)
	if err != nil {
		t.Fatal(err)
	}
	if n1.Cmp(big.NewInt(2)) != 0 || n2.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("counts = %v, %v (want 2 and 2)", n1, n2)
	}
}

func TestEquivalenceAPI(t *testing.T) {
	// Example 5.2.
	q1 := epcq.MustParseQuery("a(x,y) := E(x,y)")
	q2 := epcq.MustParseQuery("b(w,z) := E(w,z)")
	eq, err := epcq.CountingEquivalent(q1, q2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("Example 5.2 must be counting equivalent")
	}
	// Example 5.7.
	q3 := epcq.MustParseQuery("c(x,y) := exists z. E(x,y) & F(z)")
	sce, err := epcq.SemiCountingEquivalent(q1, q3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sce {
		t.Fatal("Example 5.7 must be semi-counting equivalent")
	}
	ce, err := epcq.CountingEquivalent(q1, q3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ce {
		t.Fatal("Example 5.7 must not be counting equivalent")
	}
}

func TestLogicalEquivalenceAPI(t *testing.T) {
	q1 := epcq.MustParseQuery("a(x,y) := E(x,y) & E(x,y)")
	q2 := epcq.MustParseQuery("b(x,y) := E(x,y)")
	eq, err := epcq.LogicallyEquivalent(q1, q2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("duplicate atoms must be logically equivalent")
	}
}

func TestClassifyAPI(t *testing.T) {
	path := epcq.MustParseQuery("p(s,t) := exists u,v. E(s,u) & E(u,v) & E(v,t)")
	v, err := epcq.Classify(path, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Case != epcq.CaseFPT {
		t.Fatalf("path classification = %v", v.Case)
	}
	clique := epcq.MustParseQuery("c(x,y,z,w) := E(x,y)&E(x,z)&E(x,w)&E(y,z)&E(y,w)&E(z,w)")
	v, err = epcq.Classify(clique, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Case != epcq.CaseSharpClique {
		t.Fatalf("clique classification = %v", v.Case)
	}
}

func TestCompileAPI(t *testing.T) {
	q := epcq.MustParseQuery(`th(w,x,y,z) := E(x,y) & E(y,z)
		| E(z,w) & E(w,x)
		| E(w,x) & E(x,y)
		| exists a,b,c,d. E(a,b) & E(b,c) & E(c,d)`)
	c, err := epcq.Compile(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Plus) != 2 {
		t.Fatalf("Example 5.21: |φ⁺| = %d, want 2", len(c.Plus))
	}
}

func TestToPPRejectsUnions(t *testing.T) {
	q := epcq.MustParseQuery("q(x,y) := E(x,y) | E(y,x)")
	if _, err := epcq.ToPP(q, nil); err == nil {
		t.Fatal("ToPP must reject non-pp queries")
	}
}

func TestAnswersAPI(t *testing.T) {
	q := epcq.MustParseQuery("q(x,y) := E(x,y) | E(y,x)")
	b := epcq.MustParseStructure("E(a,b). E(b,c).", nil)
	answers, err := epcq.Answers(q, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 4 {
		t.Fatalf("answers = %d, want 4 (ab, ba, bc, cb)", len(answers))
	}
	n, err := epcq.Count(q, b)
	if err != nil {
		t.Fatal(err)
	}
	if n.Int64() != int64(len(answers)) {
		t.Fatalf("Count %v != len(Answers) %d", n, len(answers))
	}
	limited, err := epcq.Answers(q, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 {
		t.Fatalf("limited answers = %d, want 2", len(limited))
	}
}

func TestCountHomomorphismsAPI(t *testing.T) {
	a := epcq.MustParseStructure("E(x,y).", nil)
	b := epcq.MustParseStructure("E(1,2). E(2,3). E(3,3).", nil)
	n, err := epcq.CountHomomorphisms(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("homs = %v, want 3 (one per edge)", n)
	}
}

func TestBuildStructureProgrammatically(t *testing.T) {
	sig, err := epcq.NewSignature(epcq.RelSym{Name: "R", Arity: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := epcq.NewStructure(sig)
	if err := b.AddFact("R", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	q := epcq.MustParseQuery("q(x) := exists y, z. R(x,y,z)")
	n, err := epcq.Count(q, b)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("count = %v, want 1", n)
	}
}

func TestCountBatchAPI(t *testing.T) {
	q, err := epcq.ParseQuery("common(a,c) := exists m. E(a,m) & E(m,c)")
	if err != nil {
		t.Fatal(err)
	}
	var batch []*epcq.Structure
	srcs := []string{
		"E(a,b). E(b,c).",
		"E(a,a).",
		"E(a,b). E(b,c). E(c,d). E(d,a).",
	}
	sig, err := epcq.InferSignature(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		b, err := epcq.ParseStructure(src, sig)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, b)
	}
	got, err := epcq.CountBatch(q, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("batch returned %d results, want %d", len(got), len(batch))
	}
	for i, b := range batch {
		want, err := epcq.Count(q, b)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Cmp(want) != 0 {
			t.Fatalf("batch[%d] = %v, want %v", i, got[i], want)
		}
	}
	if res, err := epcq.CountBatch(q, nil); err != nil || res != nil {
		t.Fatalf("empty batch = %v, %v; want nil, nil", res, err)
	}
}

// One-shot counts run in sessions of their own: a φ⁺ member counted
// directly and through the ep oracle (the backward reduction of Theorem
// 3.1), both slice reductions and a homomorphism count leave the
// process-wide session registry as they found it, so a throwaway
// structure can evict no serving session.
func TestOneShotCountsLeaveSessionRegistryAlone(t *testing.T) {
	q := epcq.MustParseQuery("q(x,y) := E(x,y) | E(y,x)")
	b := epcq.MustParseStructure("E(a,b). E(b,c). E(c,d). E(d,d).", nil)
	c, err := core.NewCounter(q, b.Signature(), engine.FPT)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(y *epcq.Structure) (*big.Int, error) { return eptrans.CountEPViaPP(c.Compiled, y, c.CountPP) }
	before := engine.SessionStats()
	for _, p := range c.Compiled.Plus {
		direct, err := c.CountPP(p, b)
		if err != nil {
			t.Fatal(err)
		}
		viaOracle, err := c.CountPPViaOracle(p, b)
		if err != nil {
			t.Fatal(err)
		}
		viaEP, err := eptrans.CountPPViaEP(c.Compiled, p, b, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if viaOracle.Cmp(direct) != 0 || viaEP.Cmp(direct) != 0 {
			t.Fatalf("%v: direct %v, via the counter's oracle %v, via CountPPViaEP %v", p, direct, viaOracle, viaEP)
		}
	}
	if _, err := oracle(b); err != nil {
		t.Fatal(err)
	}
	if _, err := epcq.CountHomomorphisms(epcq.MustParseStructure("E(u,v). E(v,w).", nil), b); err != nil {
		t.Fatal(err)
	}
	if after := engine.SessionStats(); after.Sessions != before.Sessions || after.Evictions != before.Evictions {
		t.Fatalf("one-shot counts changed the session registry: %+v → %+v", before, after)
	}
}
