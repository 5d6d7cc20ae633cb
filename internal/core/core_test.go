package core

import (
	"fmt"
	"math/big"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/reduce"
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
			b := workload.RandomStructure(c.Signature(), 3, 0.4, seed)
			want, err := count.EPDirect(c.Query(), b)
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

	// Differential: Counter.Classify reads each φ⁺ member off its plan's
	// shape; classify.ClassifyEP compiles the query again and measures
	// every member itself.  The verdicts must agree in every field but
	// the formula pointers, whose text is compared instead.
	battery := append(routingBattery(), namedQuery{"sentence", parser.MustQuery("q(x,y) := E(x,y) & E(y,x) | exists u. E(u,u)")})
	for seed := int64(0); seed < 200; seed++ {
		q := workload.RandomEPQuery(workload.EdgeSig(), 3, 4, 2, 3, 1000+seed)
		battery = append(battery, namedQuery{fmt.Sprintf("random-ep-%d", 1000+seed), q})
	}
	strip := func(v classify.Verdict) (classify.Verdict, []string) {
		texts := make([]string, len(v.Reports))
		v.Reports = slices.Clone(v.Reports)
		for i := range v.Reports {
			texts[i] = v.Reports[i].Formula.String()
			v.Reports[i].Formula, v.Reports[i].Core = pp.PP{}, pp.PP{}
		}
		return v, texts
	}
	sentences := 0
	for _, nq := range battery {
		c, err := NewCounter(nq.q, nil, count.EngineFPT)
		if err != nil {
			t.Fatalf("%s: %v", nq.name, err)
		}
		sentences += len(c.sentences)
		for _, w := range [][2]int{{1, 1}, {2, 2}, {1, 3}, {3, 3}} {
			got, err := c.Classify(w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := classify.ClassifyEP(nq.q, c.Signature(), w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			gotV, gotF := strip(got)
			wantV, wantF := strip(want)
			if !reflect.DeepEqual(gotV, wantV) || !slices.Equal(gotF, wantF) {
				t.Fatalf("%s under %v:\nCounter.Classify %+v %q\nClassifyEP       %+v %q", nq.name, w, gotV, gotF, wantV, wantF)
			}
		}
	}
	if sentences == 0 {
		t.Fatal("the battery has no sentence disjunct")
	}
}

// The counter is an ep oracle: the backward reduction of Theorem 3.1
// recovers every φ⁺ member's count from its counts alone.
func TestCounterOracleRoundTrip(t *testing.T) {
	q := parser.MustQuery("q(x,y) := E(x,y) | E(y,x)")
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := eptrans.Compile(q, c.Signature())
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(workload.EdgeSig(), 3, 0.5, 5)
	for _, p := range comp.Plus {
		direct, err := engine.CountOnce(p, b)
		if err != nil {
			t.Fatal(err)
		}
		viaOracle, err := reduce.CountPPViaEP(comp, p, b, c.Count)
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
	if strings.Contains(s, "heuristic") {
		t.Fatalf("Explain marks exact widths heuristic:\n%s", s)
	}

	// A free path on 26 variables is past the exact treewidth search, so
	// its widths are min-fill upper bounds and Explain says so.
	c, err = NewCounter(workload.FreePathQuery(25), nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	if want := "  φ⁺[0]: core tw 1, contract tw 1, ∃-components 0 (max interface 0) (heuristic bound)\n"; !strings.Contains(c.Explain(), want) {
		t.Fatalf("Explain lacks %q:\n%s", want, c.Explain())
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
