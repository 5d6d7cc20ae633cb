package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/structure"
	"repro/internal/workload"
)

// A hot session must survive cap pressure: the registry evicts
// least-recently-used entries, not the whole map.
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
	sessionMu.Lock()
	n := len(sessions)
	sessionMu.Unlock()
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
			if pc.sentence || pc.nActive == 0 {
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
		tables, dom := layeredEdgeTables(sh.nvars-1, sh.layers, sh.width, sh.deg, sh.seed, &arena{})
		checkPrunePreservesCount(t, fmt.Sprintf("shape %+v", sh), pc, tables, dom)
	}
}

// A predicate count must leave no more arena memory parked in its session
// than the predicate's rows and the atom tables need: the nested run that
// materializes the ∃-component binds pruned table copies, prefix indexes
// and a bind plan, all one-shot, and returns them before it emits the
// rows.  One cold count of the quantified 3-path at the repository
// benchmark's cold-exec size holds no pooled chunk at all: its atom
// tables are the store's rows, and its predicate's rows are the key set's
// own words; retiring the session leaves the balance where it was.
func TestPredicateCountHoldsNoArenaChunk(t *testing.T) {
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "p(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)")
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(sig, 120, 8.0/120, 20160626)
	base := ArenaChunksLive()
	s := NewSession(b)
	if _, err := pl.CountIn(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if held := ArenaChunksLive() - base; held != 0 {
		t.Fatalf("one cold predicate count holds %d arena chunks in its session, want 0", held)
	}
	s.retire()
	if live := ArenaChunksLive(); live != base {
		t.Fatalf("retiring the session left %d chunks live, baseline %d", live, base)
	}
}
