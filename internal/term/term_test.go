package term_test

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/term"
	"repro/internal/workload"
)

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

func TestPoolMergesAndCancels(t *testing.T) {
	sig := workload.EdgeSig()
	lib := []logic.Var{"x", "y"}
	p1 := mustDisjunct(t, sig, lib, "p(x,y) := exists u. E(x,u) & E(u,y)")
	// p2 carries a redundant quantified part (v retracts onto u), so it is
	// counting equivalent to p1 but NOT raw-isomorphic: it must merge at
	// the cored stage, not the raw stage.
	p2 := mustDisjunct(t, sig, lib, "p(x,y) := exists u, v. E(x,u) & E(u,y) & E(x,v)")
	pl := term.NewPool()
	i1, err := pl.Add(p1, big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	// The identical formula again (raw-stage merge) with a cancelling
	// coefficient.
	i2, err := pl.Add(p1, big.NewInt(-1))
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 {
		t.Fatalf("identical formulas interned to distinct classes %d, %d", i1, i2)
	}
	i3, err := pl.Add(p2, big.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Raw != 3 {
		t.Fatalf("Raw = %d, want 3", st.Raw)
	}
	if st.RawMerged != 1 {
		t.Fatalf("RawMerged = %d, want 1 (second Add of p1 merges pre-core; p2 must not)", st.RawMerged)
	}
	if i3 != i1 {
		t.Fatalf("p2's core is the 2-path: must intern into p1's class (%d vs %d)", i3, i1)
	}
	if st.Unique != 1 {
		t.Fatalf("Unique = %d, want 1", st.Unique)
	}
	if st.Unique != len(pl.Terms()) {
		t.Fatalf("Unique = %d, entries = %d", st.Unique, len(pl.Terms()))
	}
	// Coefficients: class of p1 carries 1−1(+2 if p2 joined it).
	for _, e := range pl.Terms() {
		if e.Coeff.Sign() == 0 && e.Raw < 2 {
			t.Fatalf("zero coefficient on a singleton class")
		}
	}
	live := pl.Live()
	for _, e := range live {
		if e.Coeff.Sign() == 0 {
			t.Fatal("Live returned a cancelled class")
		}
	}
}

// TestPoolBackfillsBucketsForUnlabelledTerm: a pool whose entries are
// all fingerprinted keeps no invariant-key buckets; the first unlabelled
// term (DisableCanon forces one) builds them for the earlier entries, and
// must still find the fingerprinted entry it is counting equivalent to.
// Entries added after the backfill are bucketed as they arrive.
func TestPoolBackfillsBucketsForUnlabelledTerm(t *testing.T) {
	sig := workload.EdgeSig()
	lib := []logic.Var{"x", "y"}
	path := mustDisjunct(t, sig, lib, "p(x,y) := exists u. E(x,u) & E(u,y)")
	twoCycle := mustDisjunct(t, sig, lib, "p(x,y) := E(x,y) & E(y,x)")
	// Counting equivalent to path (v retracts onto u) and to twoCycle
	// (w retracts onto y), but not raw-isomorphic to either.
	pathTwin := mustDisjunct(t, sig, lib, "p(x,y) := exists u, v. E(x,u) & E(u,y) & E(x,v)")
	cycleTwin := mustDisjunct(t, sig, lib, "p(x,y) := exists w. E(x,y) & E(y,x) & E(x,w)")
	loops := mustDisjunct(t, sig, lib, "p(x,y) := E(x,x) & E(y,y)")
	loopsTwin := mustDisjunct(t, sig, lib, "p(x,y) := exists w. E(x,x) & E(y,y) & E(w,w)")
	pl := term.NewPool()
	add := func(f pp.PP, canon bool, coeff int64, want int) {
		t.Helper()
		pl.DisableCanon = !canon
		i, err := pl.Add(f, big.NewInt(coeff))
		if err != nil {
			t.Fatal(err)
		}
		if i != want {
			t.Fatalf("interned into class %d, want %d", i, want)
		}
	}
	add(path, true, 1, 0)
	add(twoCycle, true, 1, 1)
	add(pathTwin, false, -1, 0) // backfills the buckets
	add(loops, true, 1, 2)      // bucketed on arrival
	add(loopsTwin, false, 2, 2)
	add(cycleTwin, false, 1, 1)
	st := pl.Stats()
	if st.Unique != 3 || st.Fallback != 3 || st.Cancelled != 1 {
		t.Fatalf("stats %+v, want 3 classes, 3 terms via fallback, 1 cancelled", st)
	}
	for i, e := range pl.Terms() {
		if e.FP == "" {
			t.Fatalf("class %d lost its fingerprint", i)
		}
	}
}

func TestPoolCancellationDropsClass(t *testing.T) {
	sig := workload.EdgeSig()
	lib := []logic.Var{"x"}
	p := mustDisjunct(t, sig, lib, "p(x) := E(x,x)")
	pl := term.NewPool()
	if _, err := pl.Add(p, big.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Add(p, big.NewInt(-3)); err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Unique != 1 || st.Cancelled != 1 {
		t.Fatalf("stats = %+v, want Unique 1 Cancelled 1", st)
	}
	if len(pl.Live()) != 0 {
		t.Fatal("cancelled class must not be live")
	}
}

// The canonical path and the DisableCanon fallback must agree on the
// classes and merged coefficients.
func TestPoolFallbackAgreesWithCanonical(t *testing.T) {
	sig := workload.EdgeSig()
	lib := []logic.Var{"x", "y"}
	formulas := []pp.PP{
		mustDisjunct(t, sig, lib, "p(x,y) := E(x,y)"),
		mustDisjunct(t, sig, lib, "p(x,y) := E(y,x)"),
		mustDisjunct(t, sig, lib, "p(x,y) := exists u. E(x,u) & E(u,y)"),
		mustDisjunct(t, sig, lib, "p(x,y) := exists v. E(y,v) & E(v,x)"),
		mustDisjunct(t, sig, lib, "p(x,y) := E(x,y) & E(y,x)"),
		mustDisjunct(t, sig, lib, "p(x,y) := exists u. E(x,y) & E(u,u)"),
	}
	coeffs := []int64{1, -1, 2, 2, -3, 1}
	fast, slow := term.NewPool(), term.NewPool()
	slow.DisableCanon = true
	for i, f := range formulas {
		if _, err := fast.Add(f, big.NewInt(coeffs[i])); err != nil {
			t.Fatal(err)
		}
		if _, err := slow.Add(f, big.NewInt(coeffs[i])); err != nil {
			t.Fatal(err)
		}
	}
	fl, sl := fast.Live(), slow.Live()
	if len(fl) != len(sl) {
		t.Fatalf("paths disagree: %d vs %d live classes", len(fl), len(sl))
	}
	for i := range fl {
		if fl[i].Coeff.Cmp(sl[i].Coeff) != 0 {
			t.Fatalf("class %d coefficient: %v vs %v", i, fl[i].Coeff, sl[i].Coeff)
		}
		eq, err := pp.CountingEquivalent(fl[i].Formula, sl[i].Formula)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("class %d representatives not equivalent", i)
		}
	}
	if slow.Stats().Fallback != slow.Stats().Raw {
		t.Fatalf("DisableCanon pool should classify everything via fallback: %+v", slow.Stats())
	}
}

// randomFormula builds a deterministic pseudo-random pp-formula over E/2
// with n ∈ [2,5] elements.
func randomFormula(t *testing.T, rng *rand.Rand) pp.PP {
	t.Helper()
	sig := workload.EdgeSig()
	a := structure.New(sig)
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		a.EnsureElem("v" + string(rune('0'+i)))
	}
	tuples := 1 + rng.Intn(5)
	for i := 0; i < tuples; i++ {
		if err := a.AddTuple("E", rng.Intn(n), rng.Intn(n)); err != nil {
			t.Fatal(err)
		}
	}
	var s []int
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			s = append(s, v)
		}
	}
	p, err := pp.New(a, s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// permuteFormula applies an element-index permutation to the formula:
// the result is isomorphic (liberal set carried along), hence counting
// equivalent.
func permuteFormula(t *testing.T, p pp.PP, perm []int) pp.PP {
	t.Helper()
	a := structure.New(p.A.Signature())
	n := p.A.Size()
	for i := 0; i < n; i++ {
		a.EnsureElem("w" + string(rune('0'+i)))
	}
	for _, r := range p.A.Signature().Rels() {
		var addErr error
		p.A.ForEachTuple(r.Name, func(tp []int) bool {
			nt := make([]int, len(tp))
			for j, v := range tp {
				nt[j] = perm[v]
			}
			addErr = a.AddTuple(r.Name, nt...)
			return addErr == nil
		})
		if addErr != nil {
			t.Fatal(addErr)
		}
	}
	var s []int
	for _, v := range p.S {
		s = append(s, perm[v])
	}
	q, err := pp.New(a, s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// Property: two pp-terms intern to the same fingerprint iff pp reports
// them counting-equivalent (Theorem 5.4 via canonical cores).
func TestFingerprintIffCountingEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	var catalog []pp.PP
	for i := 0; i < 24; i++ {
		p := randomFormula(t, rng)
		catalog = append(catalog, p)
		// Guaranteed-positive pairs: an index-permuted copy.
		perm := rng.Perm(p.A.Size())
		catalog = append(catalog, permuteFormula(t, p, perm))
	}
	fps := make([]string, len(catalog))
	for i, p := range catalog {
		fp, err := term.Fingerprint(p)
		if err != nil {
			t.Fatalf("fingerprint budget exceeded on tiny formula %v: %v", p, err)
		}
		fps[i] = fp
	}
	for i := 0; i < len(catalog); i++ {
		for j := i + 1; j < len(catalog); j++ {
			eq, err := pp.CountingEquivalent(catalog[i], catalog[j])
			if err != nil {
				t.Fatal(err)
			}
			if eq != (fps[i] == fps[j]) {
				t.Fatalf("formulas %d (%v) and %d (%v): CountingEquivalent=%v but fingerprint equality=%v",
					i, catalog[i], j, catalog[j], eq, fps[i] == fps[j])
			}
		}
	}
}
