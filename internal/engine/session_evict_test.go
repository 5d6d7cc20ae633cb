package engine

import (
	"math/big"
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
	if !s2.Valid() || s1.Valid() {
		t.Fatal("validity flags wrong after mutation")
	}
	ReleaseSession(b)
}

// Semi-join pruning must not change the DP's count, only shrink its
// inputs.  Structures are large enough that tables clear pruneMinRows.
func TestSemiJoinPrunePreservesJoinCount(t *testing.T) {
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "q(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)")
	pl, err := Compile(p, FPTNoCore)
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
			total := 0
			for ci := range pc.constraints {
				tables[ci] = s.tableFor(&pc.constraints[ci], nil)
				total += tables[ci].Len()
			}
			want, _ := joinCount(pc, newExecPlan(pc, tables, bs.Size()), bs.Size(), nil)
			pruned, empty := semiJoinPrune(pc, tables, bs.Size())
			var got *big.Int
			if empty {
				got = new(big.Int)
			} else {
				got, _ = joinCount(pc, newExecPlan(pc, pruned, bs.Size()), bs.Size(), nil)
			}
			if want.Cmp(got) != 0 {
				t.Fatalf("seed %d: pruned count %v != unpruned %v", seed, got, want)
			}
			prunedTotal := 0
			for _, pt := range pruned {
				prunedTotal += pt.Len()
			}
			if prunedTotal > total {
				t.Fatalf("seed %d: pruning grew tables (%d > %d)", seed, prunedTotal, total)
			}
			// The shared session tables must be untouched.
			for ci := range pc.constraints {
				if s.tableFor(&pc.constraints[ci], nil).Len() != tables[ci].Len() {
					t.Fatalf("seed %d: session table %d mutated by pruning", seed, ci)
				}
			}
		}
	}
}

// The FPT count path must never fall back to the deprecated Tuples
// full-materialization shim: materialization projects off columns, hom
// candidate generation walks posting lists/columns.
func TestFPTCountPerformsZeroFullScans(t *testing.T) {
	sig := workload.EdgeSig()
	queries := []string{
		"q(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)",
		"q(a,b) := exists u, v. E(a,u) & E(u,v) & E(v,b)",
		"q(x) := E(x,x) & (exists s, t. E(s,t) & E(t,s))",
	}
	for _, src := range queries {
		p := compilePP(t, sig, src)
		for _, name := range []Name{FPT, FPTNoCore, Projection} {
			pl, err := Compile(p, name)
			if err != nil {
				t.Fatal(err)
			}
			bs := workload.RandomStructure(sig, 15, 0.2, 3)
			s := NewSession(bs)
			before := structure.FullScanCount()
			if _, err := pl.CountIn(s); err != nil {
				t.Fatal(err)
			}
			if d := structure.FullScanCount() - before; d != 0 {
				t.Errorf("%s engine %v: %d full-relation scans during count, want 0", src, name, d)
			}
		}
	}
}

// A predicate count must leave no more arena memory parked in its session
// than the predicate's rows and the atom tables need: the nested run that
// materializes the ∃-component binds pruned table copies, prefix indexes
// and a bind plan, all one-shot, and returns them before it emits the
// rows.  One cold count of the quantified 3-path at the repository
// benchmark's cold-exec size holds one pooled chunk, as it did when the
// hom solver enumerated the predicate and bound nothing at all; retiring
// the session returns it.
func TestPredicateCountHoldsOneArenaChunk(t *testing.T) {
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "p(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)")
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(sig, 120, 8.0/120, 20160626)
	base := ArenaChunksLive()
	s := NewSession(b)
	if _, err := pl.CountIn(s); err != nil {
		t.Fatal(err)
	}
	if held := ArenaChunksLive() - base; held != 1 {
		t.Fatalf("one cold predicate count holds %d arena chunks in its session, want 1", held)
	}
	s.retire()
	if live := ArenaChunksLive(); live != base {
		t.Fatalf("retiring the session left %d chunks live, baseline %d", live, base)
	}
}
