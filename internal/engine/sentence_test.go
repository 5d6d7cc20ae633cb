package engine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// randomSentence draws a sentence over predSig: one Gaifman-connected
// quantified part of 1–5 variables (a random tree of E atoms plus random
// extra atoms: cycles, loops, R triples), or one of the two shapes that
// has no atom tree — a lone quantified variable with no atom at all, and
// a disconnected pair of parts.
func randomSentence(rng *rand.Rand) pp.PP {
	a := structure.New(predSig())
	part := func(q int) {
		base := a.Size()
		for i := 0; i < q; i++ {
			a.EnsureElem(fmt.Sprintf("z%d", base+i))
		}
		v := func() int { return base + rng.Intn(q) }
		for i := 1; i < q; i++ {
			_ = a.AddTuple("E", base+i, base+rng.Intn(i))
		}
		for n := rng.Intn(4); n > 0; n-- {
			_ = a.AddTuple("E", v(), v()) // may close a cycle, may be a loop
		}
		for n := rng.Intn(3); n > 0; n-- {
			_ = a.AddTuple("R", v(), v(), v())
		}
	}
	switch rng.Intn(6) {
	case 0:
		a.EnsureElem("z0")
	case 1:
		part(1 + rng.Intn(3))
		part(1 + rng.Intn(3))
	default:
		part(1 + rng.Intn(5))
	}
	p, err := pp.New(a, nil)
	if err != nil {
		panic(err)
	}
	return p
}

// TestSentenceMatchesSolver is the differential of the sentence decider:
// a sentence compiles to components without liberal positions, each one
// zero-width predicate constraint whose table — empty, or one empty row —
// is exactly hom.Exists's verdict for the component, and the plan's count
// is 1 exactly when the solver maps the whole sentence into the
// structure.  Structures run from the empty universe through 64 and 130
// elements, so the nested runs see atom tables on tuples and on rows;
// every third round forces the wide-bag spill keys.
func TestSentenceMatchesSolver(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	verdicts := [2]int{}
	rowsBefore := rowBinds.Load()
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := randomSentence(rng)
		pl, err := Compile(p, FPT)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 2 + rng.Intn(5), 64, 130} {
			var b *structure.Structure
			switch n {
			case 64:
				b = RowsStructure(n, (2+rng.Intn(6))*n, rng.Intn(2*n), int64(seed))
			case 130:
				b = GrownRowsStructure(n, (2+rng.Intn(6))*n, rng.Intn(2*n), int64(seed))
			default:
				b = randomPredStructure(rng, n)
			}
			restore := func() {}
			if seed%3 == 0 {
				restore = ForcePackedKeyBudget(0)
			}
			s := NewSession(b)
			got, err := pl.CountIn(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			for _, pc := range pl.(*fptPlan).comps {
				if pc.nActive != 0 || len(pc.constraints) != 1 || pc.constraints[0].sub == nil || len(pc.constraints[0].scope) != 0 {
					t.Fatalf("seed %d: sentence component compiled to %d active positions, %d constraints; want one zero-width predicate", seed, pc.nActive, len(pc.constraints))
				}
				c := &pc.constraints[0]
				tab := s.tableFor(c, nil)
				if want := hom.Exists(c.sub, b, hom.Options{}); tab.width != 0 || tab.n > 1 || (tab.n == 1) != want {
					t.Fatalf("seed %d n %d: component %v: table width %d with %d rows, solver %v", seed, n, c.sub, tab.width, tab.n, want)
				}
			}
			restore()
			want := 0
			if hom.Exists(p.A, b, hom.Options{}) {
				want = 1
			}
			if got.Cmp(big.NewInt(int64(want))) != 0 {
				t.Fatalf("seed %d n %d: sentence %v: count %v, solver %d", seed, n, p.A, got, want)
			}
			verdicts[want]++
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts false/true = %v: the generator missed a side", verdicts)
	}
	if rowBinds.Load() == rowsBefore {
		t.Fatal("no nested run bound a position from rows")
	}
}

// cliqueSentence is ∃x₁…x_k ⋀_{i≠j} E(xᵢ,xⱼ): a symmetric k-clique with
// no loop.
func cliqueSentence(k int) pp.PP {
	a := structure.New(workload.EdgeSig())
	for i := 0; i < k; i++ {
		a.EnsureElem(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				_ = a.AddTuple("E", i, j)
			}
		}
	}
	p, err := pp.New(a, nil)
	if err != nil {
		panic(err)
	}
	return p
}

// turan is the complete r-partite loop-free digraph on n elements (both
// directions of every cross-part pair): K_{r+1} has no homomorphism into
// it, and refuting one walks every r-clique.
func turan(n, r int) *structure.Structure {
	b := structure.New(workload.EdgeSig())
	for i := 0; i < n; i++ {
		b.EnsureElem(fmt.Sprintf("e%d", i))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u%r != v%r {
				_ = b.AddTuple("E", u, v)
			}
		}
	}
	return b
}

// TestSentenceCheckAbortMidRun: a deadline that fires while the DP is
// deciding a sentence — K4 on a complete 3-partite digraph, which it
// refutes only after walking every triangle; the un-cancelled check has
// just taken at least 100 × the deadline on an identical copy (the
// workload.SlowDigraph pattern) — aborts the check with
// DeadlineExceeded, caches no predicate table, and the next check on
// the same session is right.
func TestSentenceCheckAbortMidRun(t *testing.T) {
	pl, err := Compile(cliqueSentence(4), FPT)
	if err != nil {
		t.Fatal(err)
	}
	var b *structure.Structure
	for _, n := range []int{120, 180, 240, 300, 360} {
		start := time.Now()
		if _, err := pl.CountIn(context.Background(), NewSession(turan(n, 3))); err != nil {
			t.Fatal(err)
		}
		if time.Since(start) >= 100*testDeadline {
			b = turan(n, 3)
			break
		}
	}
	if b == nil {
		t.Fatalf("no un-cancelled check took 100 × the %v deadline: the test exercised nothing", testDeadline)
	}
	s := NewSession(b)
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	if _, err := CountInCtx(ctx, pl, s, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	for k, e := range s.tables.All() {
		if k.kind == 'p' && e.t != nil {
			t.Fatalf("an aborted check cached predicate table %q", k.enc)
		}
	}
	got, err := pl.CountIn(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatalf("K4 maps into a 3-partite digraph: count %v, want 0", got)
	}
}
