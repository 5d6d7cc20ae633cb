package term_test

import (
	"math/big"
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
