package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/structure"
	"repro/internal/workload"
)

// A hot session must survive cap pressure: the registry evicts entries
// not hit since the clock hand last passed them, not the whole map.
func TestSessionForKeepsHotSessionUnderCapPressure(t *testing.T) {
	sig := workload.EdgeSig()
	hot := workload.RandomStructure(sig, 5, 0.4, 1)
	hotSession := SessionFor(hot)
	for i := 0; i < 3*sessionCacheCap; i++ {
		cold := workload.RandomStructure(sig, 4, 0.4, int64(i+100))
		SessionFor(cold)
		if SessionFor(hot) != hotSession {
			t.Fatalf("hot session evicted after %d cold inserts", i+1)
		}
	}
	n := sessions.Stats().Len
	if n > sessionCacheCap {
		t.Fatalf("registry grew past cap: %d > %d", n, sessionCacheCap)
	}
}

func TestSessionForReplacesStaleSession(t *testing.T) {
	sig := workload.EdgeSig()
	b := structure.New(sig)
	b.EnsureElem("a")
	b.EnsureElem("b")
	if err := b.AddTuple("E", 0, 1); err != nil {
		t.Fatal(err)
	}
	s1 := SessionFor(b)
	if err := b.AddTuple("E", 1, 0); err != nil {
		t.Fatal(err)
	}
	s2 := SessionFor(b)
	if s1 == s2 {
		t.Fatal("stale session not replaced after mutation")
	}
	if s2.version != b.Version() || s1.version == b.Version() {
		t.Fatal("validity flags wrong after mutation")
	}
	ReleaseSession(b)
}

// Semi-join pruning must not change the DP's count, only shrink its
// inputs: on session-materialized tables (structures large enough that
// they clear pruneMinRows) and on the layered chain shapes that drive
// the pass to each of its outcomes.
func TestSemiJoinPrunePreservesJoinCount(t *testing.T) {
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "q(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)")
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	fpt := pl.(*fptPlan)
	for seed := int64(0); seed < 5; seed++ {
		bs := workload.RandomStructure(sig, 25, 0.12, seed)
		s := NewSession(bs)
		for _, pc := range fpt.comps {
			if pc.nActive == 0 {
				continue
			}
			tables := make([]*Table, len(pc.constraints))
			for ci := range pc.constraints {
				tables[ci] = s.tableFor(&pc.constraints[ci], nil)
			}
			checkPrunePreservesCount(t, fmt.Sprintf("seed %d", seed), pc, tables, bs.Size())
		}
	}
	for _, sh := range pruneShapes {
		pc := chainComponent(sh.nvars)
		tables, dom := layeredEdgeTables(sh.nvars-1, sh.layers, sh.width, sh.deg, sh.seed)
		checkPrunePreservesCount(t, fmt.Sprintf("shape %+v", sh), pc, tables, dom)
	}
}

// The nested run that materializes an ∃-component binds pruned copies,
// prefix indexes, transposed rows and a bind plan, all one-shot: they
// hang off the run's views of the session's atom tables and become
// garbage with them.  The shared tables themselves are left as they were
// built — after one cold count of the quantified 3-path no atom table
// holds a prefix index, and a table on rows holds only the store's own
// orientations.  At n = 120 the atom tables are the store's rows; below
// RowsMinDom they are tuples, which the nested run would index.
func TestPredicateRunLeavesSharedTablesAlone(t *testing.T) {
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "p(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)")
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{120, 40} {
		b := workload.RandomStructure(sig, n, 8.0/float64(n), 20160626)
		s := NewSession(b)
		if _, err := pl.CountIn(context.Background(), s); err != nil {
			t.Fatal(err)
		}
		fwd, bwd, _ := b.Rel("E").BitRows()
		atoms := 0
		for k, e := range s.tables.All() {
			if k.kind != 'a' {
				continue
			}
			atoms++
			at := e.t
			if at.idx != nil {
				t.Errorf("n=%d: an atom table of %s holds %d prefix indexes after a predicate count", n, k.rel, at.idx.Stats().Len)
			}
			if (at.stride != 0) != (fwd != nil) {
				t.Fatalf("n=%d: atom table on rows %v, store keeps rows %v", n, at.stride != 0, fwd != nil)
			}
			for by, m := range at.bitRows {
				if m != nil && !sameSlice(m, fwd) && !sameSlice(m, bwd) {
					t.Errorf("n=%d: an atom table of %s holds an orientation %d of its own", n, k.rel, by)
				}
			}
		}
		if atoms == 0 {
			t.Fatalf("n=%d: the count built no atom table", n)
		}
	}
}

// sameSlice reports whether a and b are one slice (same first element).
func sameSlice(a, b []uint64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
