package engine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"time"

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

// appendShapedBatch grows one relation of b by a batch that has every
// shape the seeded delta walk must get right at once: a few random
// tuples, a tuple that is already present (the store drops it, so Δ is
// shorter than the batch), and on every third step a fresh element
// with a tuple through it (the universe grows inside the batch).
func appendShapedBatch(t *testing.T, b *structure.Structure, rng *rand.Rand, rel string, step int) {
	t.Helper()
	r := b.Rel(rel)
	arity, _ := b.Signature().Arity(rel)
	tup := make([]int, arity)
	add := func() {
		if err := b.AddTuple(rel, tup...); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() > 0 {
		r.Row(rng.Intn(r.Len()), tup)
		add()
	}
	fresh := -1
	if step%3 == 1 {
		fresh = b.EnsureElem(fmt.Sprintf("delta-grown-%d", step))
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		for j := range tup {
			tup[j] = rng.Intn(b.Size())
		}
		if i == 0 && fresh >= 0 {
			tup[rng.Intn(len(tup))] = fresh
		}
		add()
	}
}

// Delta-maintained counts must equal full recounts at every version.
// The thresholds force the delta path for every advance; the reference
// is a fresh session's full recount, and a count that shares nothing
// with the join executor as a second opinion on the final version: the
// hom solver's propagating enumeration (solverCount), which stays in
// reach on the 40–60-element ones where |B|^|lib| extendability checks
// are not.  The larger cases are what reaches the seeded walk's own
// code: tables over pruneMinRows in the reference, two-variable
// separators (4-cycle, 5-path), a template that filters Δ to nothing
// (E(x,x)), a ternary atom and a second relation with batches that grow
// only one of the two, reads that skip versions (Δ spans several
// batches), re-inserted tuples and universe growth inside a batch.
func TestDeltaAdvanceDifferential(t *testing.T) {
	restore := ForceDeltaGate(1<<30, 100)
	defer restore()
	edge, two := workload.EdgeSig(), predSig() // E/2 and R/3
	cases := []struct {
		sig     *structure.Signature
		src     string
		n       int
		density float64
		grow    []string // relation grown at step i is grow[i%len]; nil: the 5-element E batches
	}{
		{edge, "q(x,y,z) := E(x,y) & E(y,z) & E(z,x)", 5, 0.25, nil},
		{edge, "q(w,x,y,z) := E(w,x) & E(x,y) & E(y,z)", 5, 0.25, nil},
		{edge, "q(x,y,z) := E(x,y) & E(z,z)", 5, 0.25, nil},                     // multiple components, one with a free variable
		{edge, "q(s,t) := exists u, v. E(s,u) & E(u,v) & E(v,t)", 5, 0.25, nil}, // not delta-maintainable: must fall back cleanly
		{edge, "q(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)", 48, 0.08, []string{"E"}},
		{edge, "q(a,b,c,d,e) := E(a,b) & E(b,c) & E(c,d) & E(d,e)", 40, 0.06, []string{"E"}},
		{edge, "q(x,y) := E(x,x) & E(x,y)", 60, 0.05, []string{"E"}},
		{two, "q(x,y,z,w) := R(x,y,z) & E(z,w)", 40, 0.02, []string{"R", "R", "E"}},
		{two, "q(x,y,w) := R(x,y,x) & E(y,w) & E(w,x)", 44, 0.03, []string{"E", "R"}},
	}
	for qi, tc := range cases {
		p := compilePP(t, tc.sig, tc.src)
		pl, err := Compile(p, FPT)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(qi) + 7))
		b := workload.RandomStructure(tc.sig, tc.n, tc.density, int64(qi))
		fp := fmt.Sprintf("delta-differential-%d", qi)
		for step := 0; step < 12; step++ {
			if tc.grow == nil {
				appendRandomBatch(t, b, rng, step)
			} else if appendShapedBatch(t, b, rng, tc.grow[step%len(tc.grow)], step); step%4 == 2 {
				continue // no read at this version: the next advance spans two batches
			}
			got, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0)
			if err != nil {
				t.Fatalf("%s step %d: %v", tc.src, step, err)
			}
			want, err := pl.CountIn(context.Background(), NewSession(b))
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s step %d: delta-maintained %v != full recount %v", tc.src, step, got, want)
			}
		}
		want := solverCount(p, b)
		got, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: delta-maintained %v != solver %v", tc.src, got, want)
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

// The seeded walk is cancellable on its own, before any join runs: it
// polls done every cancelCheckMask+1 row visits.  Δ doubles the
// structure — exactly the default gate's 50 %, so the advance is
// attempted — and a deadline that fires mid-advance surfaces as the
// context's error, leaves no memo entry behind, and the next read of
// the fingerprint is correct.
func TestAdvanceAbortsMidReduction(t *testing.T) {
	sig := workload.EdgeSig()
	pl, err := Compile(compilePP(t, sig, "q(x,y,z) := E(x,y) & E(y,z) & E(z,x)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	const n, fp = 300, "delta-abort-mid-reduction"
	b := workload.RandomStructure(sig, n, 0.1, 17)
	if _, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0); err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	rng := rand.New(rand.NewSource(18))
	for old := snap.Rows[0]; b.Rel("E").Len() < 2*old; {
		if err := b.AddTuple("E", rng.Intn(n), rng.Intn(n)); err != nil {
			t.Fatal(err)
		}
	}

	// The walk alone, under a signal that has already fired: it stops at
	// its first poll, inside the scan of Δ, with nothing added.
	fired := make(chan struct{})
	close(fired)
	dv, ok := b.DeltaSince(snap)
	if !ok {
		t.Fatal("snapshot rejected by its own structure")
	}
	w := newSeedWalk(pl.(*fptPlan).comps[0], b, dv, fired)
	acc := new(big.Int)
	if w.term(0, acc) || !w.aborted || w.ops != cancelCheckMask+1 || acc.Sign() != 0 {
		t.Fatalf("walk under a fired signal: aborted=%v after %d row visits, acc=%v; want an abort at visit %d",
			w.aborted, w.ops, acc, cancelCheckMask+1)
	}

	adv, full := DeltaStats().Advances, DeltaStats().FullRecounts
	s := SessionFor(b)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, _, err := CountKeyedCtx(ctx, pl, fp, s, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	_, left := s.counts.Get(fp)
	if left {
		t.Fatal("aborted advance left its memo entry behind")
	}
	if st := DeltaStats(); st.Advances != adv || st.FullRecounts != full {
		t.Fatalf("aborted advance was counted: %+v, was {%d %d}", st, adv, full)
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
		t.Fatalf("read after an aborted advance: %v != full recount %v", got, want)
	}
	if DeltaStats().Advances != adv+1 {
		t.Fatal("a Δ at the gate's 50 % did not take the advance path")
	}
}

// A read after an append costs the delta, not the structure: the bytes
// an advancing keyed count allocates do not grow with the structure it
// advances over.  Two sparse graphs of the same degree, 8× apart in
// size, take the same 3-edge batches under the triangle and the
// 4-cycle; per read the allocation must agree within 2× and stay under
// 52 KiB (2× the ≈ 26 KB measured at n = 200, ≈ 17 KB at n = 1600, once
// the delta terms read the store's rows and size their accumulators from
// their supports).  Every byte the read allocates is counted.  At the
// parent of this test's commit every 4-cycle delta term zeroed a 1 MiB
// accumulator at n = 200 and copied tables of 12·n rows.
func TestAdvanceCostIndependentOfStructureSize(t *testing.T) {
	sig := workload.EdgeSig()
	var plans []Plan
	for _, src := range []string{
		"q(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"q(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)",
	} {
		pl, err := Compile(compilePP(t, sig, src), FPT)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
	}
	const batches, batchEdges = 20, 3
	perRead := func(n int) uint64 {
		b := workload.GraphStructure(workload.ER(n, 12/float64(n), int64(n)))
		defer ReleaseSession(b)
		read := func() {
			for i, pl := range plans {
				if _, _, err := CountKeyedCtx(context.Background(), pl, fmt.Sprintf("advance-cost-%d", i), SessionFor(b), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		read() // cold counts, outside the measurement
		rng := rand.New(rand.NewSource(int64(n) + 1))
		adv := DeltaStats().Advances
		var before, after runtime.MemStats
		var total uint64
		for k := 0; k < batches; k++ {
			for e := 0; e < batchEdges; {
				u, v := rng.Intn(n), rng.Intn(n)
				if b.HasTuple("E", []int{u, v}) {
					continue
				}
				if err := b.AddTuple("E", u, v); err != nil {
					t.Fatal(err)
				}
				e++
			}
			runtime.ReadMemStats(&before)
			read()
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		if got := DeltaStats().Advances - adv; got != uint64(batches*len(plans)) {
			t.Fatalf("n=%d: %d of %d reads advanced", n, got, batches*len(plans))
		}
		return total / uint64(batches*len(plans))
	}
	small, large := perRead(200), perRead(1600)
	t.Logf("bytes allocated per advancing read: n=200 %d, n=1600 %d", small, large)
	if large > 2*small || small > 2*large {
		t.Fatalf("advance allocation depends on structure size: %d B/read at n=200, %d B/read at n=1600", small, large)
	}
	if bound := uint64(52 << 10); small > bound || large > bound {
		t.Fatalf("advance allocates more than %d B a read: %d B at n=200, %d B at n=1600", bound, small, large)
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
	_, present := sessions.Get(structs[0])
	if present {
		t.Fatal("oldest structure expected to be LRU-evicted by now")
	}
	for _, b := range structs {
		ReleaseSession(b)
	}
}
