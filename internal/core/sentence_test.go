package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/count"
	"repro/internal/hom"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// randomSentenceFormula draws ∃s₀…s₃ of 1–4 random atoms over sig: a
// sentence disjunct, connected or not, that a small random structure
// satisfies or refutes about equally often.
func randomSentenceFormula(rng *rand.Rand, sig *structure.Signature) logic.Formula {
	vars := []logic.Var{"s0", "s1", "s2", "s3"}
	rels := sig.Rels()
	var atoms []logic.Formula
	for n := 1 + rng.Intn(4); n > 0; n-- {
		r := rels[rng.Intn(len(rels))]
		args := make([]logic.Var, r.Arity)
		for i := range args {
			args[i] = vars[rng.Intn(len(vars))]
		}
		atoms = append(atoms, logic.Atom{Rel: r.Name, Args: args})
	}
	return logic.Exist(vars, logic.Conj(atoms...))
}

// Random ep-queries with one or two sentence disjuncts beside random
// free ones, counted through the Counter — sentence short-circuit and
// sentence components of terms alike decided by the DP — against
// count.EPDirect; both verdicts of the sentence check occur.
func TestSentenceDisjunctsMatchDirect(t *testing.T) {
	sig := structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "R", Arity: 3},
	)
	rng := rand.New(rand.NewSource(34))
	verdicts := [2]int{}
	for trial := 0; trial < 40; trial++ {
		free := workload.RandomEPQuery(sig, 1+rng.Intn(2), 4, 2, 2+rng.Intn(3), rng.Int63())
		parts := []logic.Formula{free.F}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			parts = append(parts, randomSentenceFormula(rng, sig))
		}
		q := logic.MustQuery(fmt.Sprintf("sent%d", trial), free.Lib, logic.Disj(parts...))
		c, err := NewCounter(q, sig, count.EngineFPT)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, n := range []int{1, 2, 3, 4} {
			b := workload.RandomStructure(sig, n, 0.1+0.3*rng.Float64(), rng.Int63())
			got, err := c.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := count.EPDirect(q, b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s on %d elements: count %v, direct %v", q, n, got, want)
			}
			for _, th := range c.sentences {
				if hom.Exists(th.formula.A, b, hom.Options{}) {
					verdicts[1]++
				} else {
					verdicts[0]++
				}
			}
		}
	}
	t.Logf("sentence verdicts false/true = %v", verdicts)
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("sentence verdicts false/true = %v: the generator missed a side", verdicts)
	}
}

// The disjunct true has no variables: it is the empty formula, a
// sentence whose one answer, the empty tuple, is an answer on every
// structure.  So q() := true, alone or beside ∃x E(x,x), counts 1 on
// structures with and without a loop, as union enumeration of the
// disjuncts does.
func TestTrueDisjunctCountsOne(t *testing.T) {
	sig := workload.EdgeSig()
	rng := rand.New(rand.NewSource(52))
	loop := workload.RandomStructure(sig, 3, 0, 1)
	_ = loop.AddTuple("E", 1, 1)
	bs := []*structure.Structure{workload.RandomStructure(sig, 1, 0, 1), loop}
	for n := 1; n <= 5; n++ {
		bs = append(bs, workload.RandomStructure(sig, n, 0.5*rng.Float64(), rng.Int63()))
	}
	for _, text := range []string{"q() := true", "q() := true | exists x. E(x,x)", "q() := exists x. E(x,x) | true"} {
		q, err := parser.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		var disjuncts []pp.PP
		for _, d := range q.Disjuncts() {
			p, err := pp.FromDisjunct(sig, q.Lib, d)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			disjuncts = append(disjuncts, p)
		}
		c, err := NewCounter(q, sig, count.EngineFPT)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for i, b := range bs {
			got, err := c.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := count.EPUnion(disjuncts, b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 || got.Int64() != 1 {
				t.Errorf("%s on structure %d: count %v, union enumeration %v, want 1", text, i, got, want)
			}
		}
	}
}
