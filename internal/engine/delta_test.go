package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/structure"
	"repro/internal/workload"
)

// appendRandomBatch grows b by a few random edges (and occasionally a
// fresh element), returning how many tuples it actually added.
func appendRandomBatch(t *testing.T, b *structure.Structure, rng *rand.Rand, step int) int {
	t.Helper()
	if step%4 == 3 {
		b.EnsureElem(fmt.Sprintf("delta-extra-%d", step))
	}
	added := 0
	n := b.Size()
	for i := 0; i < 1+rng.Intn(4); i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		was := b.Rel("E").Len()
		if err := b.AddTuple("E", u, v); err != nil {
			t.Fatal(err)
		}
		if b.Rel("E").Len() > was {
			added++
		}
	}
	return added
}

// Delta-maintained counts must equal full recounts at every version.
// The thresholds force the delta path for every advance; the reference
// is a fresh session's full recount (and the brute engine as a second
// opinion on the final version).
func TestDeltaAdvanceDifferential(t *testing.T) {
	restore := ForceDeltaGate(1<<30, 100)
	defer restore()
	sig := workload.EdgeSig()
	queries := []string{
		"q(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"q(w,x,y,z) := E(w,x) & E(x,y) & E(y,z)",
		"q(x,y,z) := E(x,y) & E(z,z)",                     // multiple components, one with a free variable
		"q(s,t) := exists u, v. E(s,u) & E(u,v) & E(v,t)", // not delta-maintainable: must fall back cleanly
	}
	for qi, src := range queries {
		p := compilePP(t, sig, src)
		pl, err := Compile(p, FPT)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Compile(p, Brute)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(qi) + 7))
		b := workload.RandomStructure(sig, 5, 0.25, int64(qi))
		fp := fmt.Sprintf("delta-differential-%d", qi)
		for step := 0; step < 12; step++ {
			appendRandomBatch(t, b, rng, step)
			got, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0)
			if err != nil {
				t.Fatalf("%s step %d: %v", src, step, err)
			}
			want, err := pl.CountIn(context.Background(), NewSession(b))
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s step %d: delta-maintained %v != full recount %v", src, step, got, want)
			}
		}
		want, err := ref.CountIn(context.Background(), SessionFor(b))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: delta-maintained %v != brute %v", src, got, want)
		}
	}
	if DeltaStats().Advances == 0 {
		t.Fatal("differential run never exercised the delta advance path")
	}
}

// An element-only append (no new tuples) must advance cheaply and still
// rescale the free-variable factors to the grown universe.
func TestDeltaAdvanceUniverseGrowth(t *testing.T) {
	restore := ForceDeltaGate(1<<30, 100)
	defer restore()
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "q(x,y,z) := E(x,y) & E(z,z)")
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(sig, 4, 0.5, 11)
	if err := b.AddTuple("E", 0, 0); err != nil { // make the count non-zero for sure
		t.Fatal(err)
	}
	fp := "delta-universe-growth"
	if _, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0); err != nil {
		t.Fatal(err)
	}
	adv := DeltaStats().Advances
	b.EnsureElem("fresh-element")
	got, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.CountIn(context.Background(), NewSession(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("after element-only append: delta-maintained %v != full recount %v", got, want)
	}
	if DeltaStats().Advances == adv {
		t.Fatal("element-only append did not take the advance path")
	}
}

// Over-threshold batches must fall back to a full recount (and count it
// in the telemetry) while still returning correct values.
func TestDeltaThresholdFallback(t *testing.T) {
	restore := ForceDeltaGate(0, 0)
	defer restore()
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "q(x,y,z) := E(x,y) & E(y,z) & E(z,x)")
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(sig, 5, 0.4, 3)
	fp := "delta-threshold-fallback"
	if _, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0); err != nil {
		t.Fatal(err)
	}
	full := DeltaStats().FullRecounts
	rng := rand.New(rand.NewSource(42))
	for step := 0; ; step++ {
		if appendRandomBatch(t, b, rng, 1) > 0 {
			break
		}
		if step > 100 {
			t.Fatal("could not grow the random structure")
		}
	}
	got, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.CountIn(context.Background(), NewSession(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("threshold fallback: %v != full recount %v", got, want)
	}
	if DeltaStats().FullRecounts == full {
		t.Fatal("zero thresholds did not force the full-recount fallback")
	}
}

// With the delta path disabled the keyed pipeline must behave exactly
// like the pre-delta engine: plain recounts, no advances.
func TestDeltaDisabledRecounts(t *testing.T) {
	restoreT := ForceDeltaGate(1<<30, 100)
	defer restoreT()
	restore := DisableDelta()
	defer restore()
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "q(x,y,z) := E(x,y) & E(y,z) & E(z,x)")
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(sig, 5, 0.4, 5)
	fp := "delta-disabled"
	adv := DeltaStats().Advances
	if _, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	appendRandomBatch(t, b, rng, 0)
	got, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.CountIn(context.Background(), NewSession(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("disabled delta: %v != full recount %v", got, want)
	}
	if DeltaStats().Advances != adv {
		t.Fatal("advance ran while the delta path was disabled")
	}
}

// Advanceable memos must not outlive their structure's registry entry:
// priors live inside the session, so LRU eviction and ReleaseSession
// free them, and the registry stays within its cap no matter how many
// structures carry version-stamped memo state.
func TestAdvanceableMemosFreedWithSessions(t *testing.T) {
	restore := ForceDeltaGate(1<<30, 100)
	defer restore()
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "q(x,y,z) := E(x,y) & E(y,z) & E(z,x)")
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	before := SessionStats()
	arenaBaseline := ArenaChunksLive()
	var structs []*structure.Structure
	for i := 0; i < sessionCacheCap+8; i++ {
		b := workload.RandomStructure(sig, 5, 0.4, int64(i))
		if _, _, err := CountKeyedCtx(context.Background(), pl, "delta-leak", SessionFor(b), 0); err != nil {
			t.Fatal(err)
		}
		structs = append(structs, b)
	}
	st := SessionStats()
	if st.Sessions > st.Cap {
		t.Fatalf("session registry above cap despite advanceable memos: %+v", st)
	}
	if st.Evictions == before.Evictions {
		t.Fatal("filling the registry past cap evicted nothing")
	}

	// A still-cached structure carries its settled counts across a
	// version bump...
	hot := structs[len(structs)-1]
	if err := hot.AddTuple("E", 0, 1); err != nil {
		t.Fatal(err)
	}
	if hot.Rel("E").Len() == 0 {
		t.Fatal("bump added nothing")
	}
	sHot := SessionFor(hot)
	sHot.mu.Lock()
	adopted := len(sHot.prior)
	sHot.mu.Unlock()
	if adopted == 0 {
		t.Fatal("warm session lost its advanceable prior across a version bump")
	}
	// ...but dropping the registry entry frees the chain: the next
	// session starts cold.
	ReleaseSession(hot)
	sCold := SessionFor(hot)
	sCold.mu.Lock()
	cold := len(sCold.prior)
	sCold.mu.Unlock()
	if cold != 0 {
		t.Fatal("advanceable memos survived ReleaseSession")
	}
	sessionMu.Lock()
	_, present := sessions[structs[0]]
	sessionMu.Unlock()
	if present {
		t.Fatal("oldest structure expected to be LRU-evicted by now")
	}

	// Arena memory follows the same lifecycle: releasing every remaining
	// registry entry must return all of this test's pooled chunks, so the
	// live-chunk gauge falls back to (at most) where it started — LRU
	// evictions above may have freed chunks of other tests' sessions too.
	for _, b := range structs {
		ReleaseSession(b)
	}
	if live := ArenaChunksLive(); live > arenaBaseline {
		t.Fatalf("arena chunks leaked across session eviction: %d live, baseline %d", live, arenaBaseline)
	}
}
