package ie_test

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/term"
	"repro/internal/tw"
	"repro/internal/workload"
)

func edgeSig() *structure.Signature { return workload.EdgeSig() }

func mustDisjunct(t *testing.T, sig *structure.Signature, lib []logic.Var, src string) pp.PP {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	ds := q.Disjuncts()
	if len(ds) != 1 {
		t.Fatalf("%q is not a single pp disjunct", src)
	}
	p, err := pp.FromDisjunct(sig, lib, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// example42 returns φ1, φ2, φ3 of Example 4.2 over V = {w,x,y,z}.
func example42(t *testing.T) []pp.PP {
	t.Helper()
	lib := []logic.Var{"w", "x", "y", "z"}
	sig := edgeSig()
	return []pp.PP{
		mustDisjunct(t, sig, lib, "p(w,x,y,z) := E(x,y) & E(y,z)"),
		mustDisjunct(t, sig, lib, "p(w,x,y,z) := E(z,w) & E(w,x)"),
		mustDisjunct(t, sig, lib, "p(w,x,y,z) := E(w,x) & E(x,y)"),
	}
}

func TestRawTermsCount(t *testing.T) {
	ds := example42(t)
	raw, err := ie.RawTerms(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 7 {
		t.Fatalf("raw terms = %d, want 2³-1 = 7", len(raw))
	}
	// Signs: |J| odd → +1, |J| even → -1.
	for _, term := range raw {
		want := int64(1)
		if len(term.Subset)%2 == 0 {
			want = -1
		}
		if term.Coeff.Int64() != want {
			t.Fatalf("subset %v coeff = %v, want %d", term.Subset, term.Coeff, want)
		}
	}
}

// maxTreewidth is the largest treewidth among the terms' formulas.
func maxTreewidth(terms []ie.Term) int {
	m := -1
	for _, x := range terms {
		if w, _, _ := tw.Treewidth(x.Formula.Graph()); w > m {
			m = w
		}
	}
	return m
}

// TestExample42Cancellation is TestPaperExample42Cancellation under the
// package's own name.
func TestExample42Cancellation(t *testing.T) { TestPaperExample42Cancellation(t) }

// Examples 4.2 / 5.15: the 7 raw terms cancel to φ* = {3·φ1, -2·(φ1∧φ3)},
// the cancelled terms were the only treewidth-2 ones, and both expansions
// count the same.
func TestPaperExample42Cancellation(t *testing.T) {
	ds := example42(t)
	raw, err := ie.RawTerms(ds)
	if err != nil {
		t.Fatal(err)
	}
	pool := term.NewPool()
	star, err := ie.MergeInto(pool, raw)
	if err != nil {
		t.Fatal(err)
	}
	ps := pool.Stats()
	t.Logf("raw terms %d, max tw %d → φ* terms %d, max tw %d; pool: %s",
		len(raw), maxTreewidth(raw), len(star), maxTreewidth(star), ps)
	if len(raw) != 7 || maxTreewidth(raw) != 2 || maxTreewidth(star) != 1 {
		t.Fatalf("raw terms %d with max treewidth %d, φ* max treewidth %d; want 7, 2 and 1",
			len(raw), maxTreewidth(raw), maxTreewidth(star))
	}
	if ps.Raw != 7 || ps.Unique != len(star)+ps.Cancelled {
		t.Fatalf("pool %s: want 7 raw and unique = %d live + cancelled", ps, len(star))
	}
	cnt := func(p pp.PP, s *structure.Structure) (*big.Int, error) {
		return count.EPUnion([]pp.PP{p}, s)
	}
	for _, n := range []int{5, 7, 10} {
		b := workload.RandomStructure(edgeSig(), n, 0.3, int64(n))
		vRaw, err := ie.Count(raw, b, cnt)
		if err != nil {
			t.Fatal(err)
		}
		vStar, err := ie.Count(star, b, cnt)
		if err != nil {
			t.Fatal(err)
		}
		if vRaw.Cmp(vStar) != 0 {
			t.Fatalf("|B| = %d: raw terms count %v, φ* counts %v", n, vRaw, vStar)
		}
		t.Logf("|B| = %d: raw and φ* both count %v", n, vStar)
	}
	if len(star) != 2 {
		for _, s := range star {
			t.Logf("term %v × %v", s.Coeff, s.Formula)
		}
		t.Fatalf("φ* has %d terms, want 2", len(star))
	}
	var got3, gotm2 bool
	for _, s := range star {
		switch s.Coeff.Int64() {
		case 3:
			got3 = true
			// Representative must be counting equivalent to φ1.
			eq, err := pp.CountingEquivalent(s.Formula, ds[0])
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatal("coefficient-3 term should be φ1's class")
			}
		case -2:
			gotm2 = true
			// Representative is the 3-path class (φ1∧φ3).
			conj, err := pp.Conjoin(ds[0], ds[2])
			if err != nil {
				t.Fatal(err)
			}
			eq, err := pp.CountingEquivalent(s.Formula, conj)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatal("coefficient -2 term should be φ1∧φ3's class")
			}
		default:
			t.Fatalf("unexpected coefficient %v", s.Coeff)
		}
	}
	if !got3 || !gotm2 {
		t.Fatal("missing expected coefficients 3 and -2")
	}
}

// rotated2Paths returns the k−1 rotations E(v_r, v_r+1) ∧ E(v_r+1, v_r+2)
// of a 2-path over the cyclic liberal variables v0 … v_k−1.  Example 4.2
// is k = 4.
func rotated2Paths(t *testing.T, k int) []pp.PP {
	t.Helper()
	lib := make([]logic.Var, k)
	for i := range lib {
		lib[i] = logic.Var(fmt.Sprintf("v%d", i))
	}
	out := make([]pp.PP, 0, k-1)
	for r := 0; r < k-1; r++ {
		p, err := pp.FromDisjunct(edgeSig(), lib, logic.Disjunct{Atoms: []logic.Atom{
			{Rel: "E", Args: []logic.Var{lib[r], lib[(r+1)%k]}},
			{Rel: "E", Args: []logic.Var{lib[(r+1)%k], lib[(r+2)%k]}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// Cancellation comes from symmetry among the disjuncts: rotated 2-paths
// cancel (Example 4.2's 7 → 2 at k = 4), and merging never adds terms on
// random unions.
func TestPaperCancellationRate(t *testing.T) {
	sig := edgeSig()
	type union struct {
		name      string
		ds        []pp.PP
		raw, star int // 0: only merged ≤ raw is asserted
	}
	unions := []union{
		{"rotated-2paths(k=4)", rotated2Paths(t, 4), 7, 2},
		{"rotated-2paths(k=5)", rotated2Paths(t, 5), 15, 4},
	}
	for seed := int64(0); seed < 4; seed++ {
		q := workload.RandomEPQuery(sig, 3, 3, 2, 2, seed)
		var free []pp.PP
		for _, d := range q.Disjuncts() {
			p, err := pp.FromDisjunct(sig, q.Lib, d)
			if err != nil {
				t.Fatal(err)
			}
			if p.IsFree() {
				free = append(free, p)
			}
		}
		unions = append(unions, union{fmt.Sprintf("random#%d", seed), free, 0, 0})
	}
	for _, u := range unions {
		raw, err := ie.RawTerms(u.ds)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := ie.Merge(raw)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-20s s=%d  raw %d → φ* %d", u.name, len(u.ds), len(raw), len(merged))
		if len(merged) > len(raw) {
			t.Errorf("%s: merging grew %d raw terms to %d", u.name, len(raw), len(merged))
		}
		if u.raw != 0 && (len(raw) != u.raw || len(merged) != u.star) {
			t.Errorf("%s: raw %d → φ* %d, want %d → %d", u.name, len(raw), len(merged), u.raw, u.star)
		}
	}
}

// The cancelled terms must still compute |φ(B)| exactly.
func TestExample42CountMatchesUnion(t *testing.T) {
	ds := example42(t)
	star, err := ie.PhiStar(ds)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		b := workload.RandomStructure(edgeSig(), 4, 0.4, seed)
		want, err := count.EPUnion(ds, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ie.Count(star, b, func(p pp.PP, s *structure.Structure) (*big.Int, error) {
			return engine.CountOnce(p, s)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: IE count %v != union %v", seed, got, want)
		}
	}
}

// Raw (uncancelled) inclusion–exclusion must agree with the cancelled one.
func TestRawEqualsMerged(t *testing.T) {
	ds := example42(t)
	raw, err := ie.RawTerms(ds)
	if err != nil {
		t.Fatal(err)
	}
	star, err := ie.Merge(raw)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(edgeSig(), 5, 0.3, 42)
	cnt := func(p pp.PP, s *structure.Structure) (*big.Int, error) {
		return count.EPUnion([]pp.PP{p}, s)
	}
	a, err := ie.Count(raw, b, cnt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ie.Count(star, b, cnt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(c) != 0 {
		t.Fatalf("raw %v != merged %v", a, c)
	}
}

// Example 4.1's expansion: φ1, φ2 not equivalent, no cancellation: φ* has
// all three terms with coefficients +1, +1, -1.
func TestExample41Terms(t *testing.T) {
	lib := []logic.Var{"w", "x", "y", "z"}
	sig := edgeSig()
	ds := []pp.PP{
		mustDisjunct(t, sig, lib, "p(w,x,y,z) := E(x,y) & E(w,x)"),
		mustDisjunct(t, sig, lib, "p(w,x,y,z) := E(x,y) & E(y,z) & E(z,z)"),
	}
	star, err := ie.PhiStar(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(star) != 3 {
		t.Fatalf("φ* terms = %d, want 3", len(star))
	}
	sum := new(big.Int)
	for _, s := range star {
		sum.Add(sum, s.Coeff)
	}
	if sum.Int64() != 1 {
		t.Fatalf("coefficients should sum to 1 (|J| parity), got %v", sum)
	}
}

func TestMaxDisjunctsGuard(t *testing.T) {
	lib := []logic.Var{"x", "y"}
	sig := edgeSig()
	one := mustDisjunct(t, sig, lib, "p(x,y) := E(x,y)")
	many := make([]pp.PP, ie.MaxDisjuncts+1)
	for i := range many {
		many[i] = one
	}
	if _, err := ie.RawTerms(many); err == nil {
		t.Fatal("expansion cap not enforced")
	}
}

// Regression: counting-equivalent terms with different universe sizes
// (one carries a redundant quantified part the other lacks) must still
// merge — the bucketing is by the invariant key of the CORE.  Here
// ψ1 = ∃u.E(x,u) and ψ2 = E(x,x): the conjunction ψ1∧ψ2 is counting
// equivalent to ψ2 (the quantified u retracts onto x), so their +1/−1
// coefficients cancel and φ* = {ψ1}.
func TestMergeAcrossUniverseSizes(t *testing.T) {
	sig := edgeSig()
	lib := []logic.Var{"x"}
	psi1 := mustDisjunct(t, sig, lib, "p(x) := exists u. E(x,u)")
	psi2 := mustDisjunct(t, sig, lib, "p(x) := E(x,x)")
	star, err := ie.PhiStar([]pp.PP{psi1, psi2})
	if err != nil {
		t.Fatal(err)
	}
	if len(star) != 1 {
		for _, s := range star {
			t.Logf("term %v × %v", s.Coeff, s.Formula)
		}
		t.Fatalf("φ* terms = %d, want 1 (ψ2 and ψ1∧ψ2 must cancel)", len(star))
	}
	eq, err := pp.CountingEquivalent(star[0].Formula, psi1)
	if err != nil {
		t.Fatal(err)
	}
	if !eq || star[0].Coeff.Int64() != 1 {
		t.Fatalf("surviving term %v × %v should be +1·ψ1", star[0].Coeff, star[0].Formula)
	}
	// And the cancelled expansion still counts correctly.
	for seed := int64(0); seed < 6; seed++ {
		b := workload.RandomStructure(sig, 3, 0.4, seed)
		want, err := count.EPUnion([]pp.PP{psi1, psi2}, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ie.Count(star, b, func(p pp.PP, s *structure.Structure) (*big.Int, error) {
			return engine.CountOnce(p, s)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: %v != %v", seed, got, want)
		}
	}
}

// The output of ie.Merge must be pairwise non-counting-equivalent — the
// contract the backward reduction's peeling relies on.
func TestMergeOutputPairwiseInequivalent(t *testing.T) {
	ds := example42(t)
	star, err := ie.PhiStar(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range star {
		for j := i + 1; j < len(star); j++ {
			eq, err := pp.CountingEquivalent(star[i].Formula, star[j].Formula)
			if err != nil {
				t.Fatal(err)
			}
			if eq {
				t.Fatalf("terms %d and %d are counting equivalent after ie.Merge", i, j)
			}
		}
	}
}

func TestEmptyDisjuncts(t *testing.T) {
	star, err := ie.PhiStar(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(star) != 0 {
		t.Fatal("empty input should give empty φ*")
	}
	b := workload.RandomStructure(edgeSig(), 3, 0.5, 7)
	got, err := ie.Count(star, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatal("empty sum should be 0")
	}
}

// PhiStarInto builds φ_J from the core of φ_J∖max; it must intern the same
// classes with the same coefficients, in the same order and with the same
// witnessing subsets, as merging the raw conjunctions.
func TestPhiStarMatchesMergedRawTerms(t *testing.T) {
	sig := edgeSig()
	for seed := int64(0); seed < 60; seed++ {
		q := workload.RandomEPQuery(sig, 4, 5, 2, 4, seed)
		var ds []pp.PP
		for _, d := range q.Disjuncts() {
			p, err := pp.FromDisjunct(sig, q.Lib, d)
			if err != nil {
				t.Fatal(err)
			}
			if p.IsFree() {
				ds = append(ds, p)
			}
		}
		raw, err := ie.RawTerms(ds)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ie.Merge(raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ie.PhiStar(ds)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d terms, merged raw terms give %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].FP != want[i].FP || got[i].Coeff.Cmp(want[i].Coeff) != 0 ||
				fmt.Sprint(got[i].Subset) != fmt.Sprint(want[i].Subset) {
				t.Fatalf("seed %d term %d: (%v, %q, %v), merged raw terms give (%v, %q, %v)", seed, i,
					got[i].Coeff, got[i].FP, got[i].Subset, want[i].Coeff, want[i].FP, want[i].Subset)
			}
		}
	}
}
