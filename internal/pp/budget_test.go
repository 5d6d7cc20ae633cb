package pp_test

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/term"
	"repro/internal/workload"
)

// A term or sentence whose labeling overruns the step budget cannot be
// interned, so it is refused with ErrLabelingBudget: by the term pool,
// and by NewCounter whether the term is a φ⁻af term or a sentence
// disjunct.  A step budget of 1 leaves no room to branch, and every
// formula below has a cell refinement cannot split.
func TestLabelingBudgetRefusal(t *testing.T) {
	defer pp.SetLabelingBudget(1)()
	sig := workload.EdgeSig()
	star := workload.StarQuery(3)
	p, err := pp.FromDisjunct(sig, star.Lib, star.Disjuncts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := term.NewPool().Add(p.Core(), big.NewInt(1)); !errors.Is(err, pp.ErrLabelingBudget) {
		t.Fatalf("Pool.Add: err = %v, want ErrLabelingBudget", err)
	}
	sentence, err := parser.ParseQuery("q() := exists a, b, c. E(a,b) & E(b,c) & E(c,a)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewCounter(star, sig, engine.FPT); !errors.Is(err, pp.ErrLabelingBudget) {
		t.Fatalf("NewCounter(star): err = %v, want ErrLabelingBudget", err)
	}
	if _, err := core.NewCounter(sentence, sig, engine.FPT); !errors.Is(err, pp.ErrLabelingBudget) {
		t.Fatalf("NewCounter(triangle sentence): err = %v, want ErrLabelingBudget", err)
	}
}
