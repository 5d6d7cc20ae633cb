package core

import (
	"math/big"
	"sort"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/count"
	"repro/internal/parser"
	"repro/internal/structure"
	"repro/internal/workload"
)

func TestCounterMatchesDirect(t *testing.T) {
	queries := []string{
		"phi(w,x,y,z) := E(x,y) & (E(w,x) | E(y,z) & E(z,z))",
		"q(x,y) := E(x,y) | exists u. E(u,u)",
		"q(s,t) := exists u. E(s,u) & E(u,t)",
	}
	for _, src := range queries {
		q := parser.MustQuery(src)
		c, err := NewCounter(q, nil, count.EngineFPT)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 5; seed++ {
			b := workload.RandomStructure(c.Compiled.Sig, 3, 0.4, seed)
			want, err := count.EPDirect(c.Compiled.Query, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s seed %d: %v != %v", src, seed, got, want)
			}
		}
	}
}

func TestCounterSignatureMismatch(t *testing.T) {
	q := parser.MustQuery("q(x) := F(x)")
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(workload.EdgeSig(), 3, 0.5, 1)
	if _, err := c.Count(b); err == nil {
		t.Fatal("signature mismatch should error")
	}
}

func TestCounterClassify(t *testing.T) {
	c, err := NewCounter(workload.PathQuery(3), nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Classify(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Case != classify.CaseFPT {
		t.Fatalf("path query should be FPT, got %v", v.Case)
	}
}

func TestCounterOracleRoundTrip(t *testing.T) {
	q := parser.MustQuery("q(x,y) := E(x,y) | E(y,x)")
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(workload.EdgeSig(), 3, 0.5, 5)
	for _, p := range c.Compiled.Plus {
		direct, err := c.CountPP(p, b)
		if err != nil {
			t.Fatal(err)
		}
		viaOracle, err := c.CountPPViaOracle(p, b)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Cmp(viaOracle) != 0 {
			t.Fatalf("oracle path %v != direct %v", viaOracle, direct)
		}
	}
}

func TestExplainMentionsPipeline(t *testing.T) {
	q := parser.MustQuery(`th(w,x,y,z) := E(x,y) & E(y,z)
		| E(z,w) & E(w,x)
		| E(w,x) & E(x,y)
		| exists a,b,c,d. E(a,b) & E(b,c) & E(c,d)`)
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Explain()
	for _, want := range []string{"normalized disjuncts: 4", "φ*af", "φ⁺ size: 2", "classification"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Explain missing %q:\n%s", want, s)
		}
	}
}

func TestSentenceShortCircuit(t *testing.T) {
	// When a sentence disjunct holds, the count is |B|^|lib| regardless of
	// the free disjuncts.
	q := parser.MustQuery("q(x,y) := E(x,y) & E(y,x) | exists u. E(u,u)")
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	b := parser.MustStructure("E(1,1). E(1,2). E(2,3).", workload.EdgeSig())
	got, err := c.Count(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(9)) != 0 {
		t.Fatalf("count = %v, want 9 = |B|²", got)
	}
}

func TestAnswersThroughCounter(t *testing.T) {
	q := parser.MustQuery("q(x,y) := E(x,y) | E(y,x)")
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	b := parser.MustStructure("E(a,b).", workload.EdgeSig())
	var got []Answer
	n, err := c.Answers(b, 0, func(a Answer) bool {
		got = append(got, append(Answer(nil), a...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(got) != 2 {
		t.Fatalf("answers = %d (%v), want 2", n, got)
	}
	sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
	if got[0][0] != "a" || got[0][1] != "b" || got[1][0] != "b" || got[1][1] != "a" {
		t.Fatalf("answers = %v", got)
	}
}

// CountBatch must agree with per-structure Count for every engine, and
// report errors (here: a signature mismatch inside the batch).
func TestCountBatchMatchesCount(t *testing.T) {
	q := parser.MustQuery("q(w,x,y,z) := E(x,y) & E(y,z) | E(z,w) & E(w,x) | E(w,x) & E(x,y)")
	for _, eng := range []count.PPEngine{count.EngineFPT, count.EngineAuto} {
		c, err := NewCounter(q, nil, eng)
		if err != nil {
			t.Fatal(err)
		}
		var batch []*structure.Structure
		var want []*big.Int
		for seed := int64(0); seed < 12; seed++ {
			b := workload.RandomStructure(workload.EdgeSig(), 4, 0.35, seed)
			batch = append(batch, b)
			v, err := c.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, v)
		}
		got, err := c.CountBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("engine %v: batch returned %d results, want %d", eng, len(got), len(want))
		}
		for i := range want {
			if got[i].Cmp(want[i]) != 0 {
				t.Fatalf("engine %v: batch[%d] = %v, want %v", eng, i, got[i], want[i])
			}
		}
	}
	// A bad structure anywhere in the batch surfaces as an error.
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	other := structure.MustSignature(structure.RelSym{Name: "F", Arity: 1})
	bad := structure.New(other)
	bad.EnsureElem("a")
	batch := []*structure.Structure{
		workload.RandomStructure(workload.EdgeSig(), 3, 0.4, 1),
		bad,
	}
	if _, err := c.CountBatch(batch); err == nil {
		t.Fatal("batch with mismatched signature must error")
	}
}
