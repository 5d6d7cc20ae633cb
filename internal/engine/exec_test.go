package engine

import (
	"fmt"
	"math/big"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// ensure must grow every buffer independently: pooled scratches cycle
// through plans of different widths, and keyBuf in particular needs
// 8×width bytes for spill keys regardless of what width the scratch was
// first sized for.
func TestScratchEnsureGrowsEachBufferIndependently(t *testing.T) {
	sc := &execScratch{}
	sc.ensure(2)
	if cap(sc.keyBuf) < 16 {
		t.Fatalf("keyBuf cap after ensure(2) = %d, want >= 16", cap(sc.keyBuf))
	}
	// Simulate a scratch whose assign buffer is wide but whose keyBuf is
	// stale-small (the pre-fix state after mixed-width pool reuse).
	sc2 := &execScratch{assign: make([]int, 16), proj: make([]int, 16), vals: make([]int, 16)}
	sc2.ensure(16)
	if cap(sc2.keyBuf) < 128 {
		t.Fatalf("keyBuf cap after ensure(16) = %d, want >= 128 (stale capacity kept)", cap(sc2.keyBuf))
	}
	// Shrinking width must not shrink anything.
	sc2.ensure(2)
	if cap(sc2.assign) < 16 || cap(sc2.keyBuf) < 128 {
		t.Fatal("ensure with a smaller width shrank a buffer")
	}
}

// Force pool reuse across widths with the spill path active: counting a
// wide-bag formula then a narrow one (and back) through the same pooled
// scratches must agree with the packed path on every instance.
func TestScratchPoolReuseAcrossWidthsWithSpill(t *testing.T) {
	sig := workload.EdgeSig()
	queries := []string{
		"q(a,b,c,d,e) := E(a,b) & E(b,c) & E(c,d) & E(d,e)", // wide bags
		"q(x,y) := E(x,y) & E(y,x)",                         // narrow bags
		"q(w,x,y,z) := E(w,x) & E(x,y) & E(y,z) & E(z,w)",   // wide again
	}
	for seed := int64(0); seed < 4; seed++ {
		b := workload.RandomStructure(sig, 7, 0.35, seed)
		var packed []*big.Int
		for _, src := range queries {
			pl, err := Compile(compilePP(t, sig, src), FPTNoCore)
			if err != nil {
				t.Fatal(err)
			}
			v, err := pl.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			packed = append(packed, v)
		}
		restore := SetPackedKeyBudget(0)
		for i, src := range queries {
			pl, err := Compile(compilePP(t, sig, src), FPTNoCore)
			if err != nil {
				restore()
				t.Fatal(err)
			}
			// Fresh session: the cached exec plan of the packed run was
			// built under the packed budget; the spill path needs its own.
			v, err := pl.CountIn(NewSession(b))
			if err != nil {
				restore()
				t.Fatal(err)
			}
			if v.Cmp(packed[i]) != 0 {
				restore()
				t.Fatalf("seed %d query %q: spill %v != packed %v", seed, src, v, packed[i])
			}
		}
		restore()
	}
}

// The parallel DP (subtree workers + pivot sharding) must agree with the
// strictly serial path on randomized instances, with the thresholds
// forced down so the concurrent machinery engages on instances small
// enough to cross-check against the brute-force reference.
func TestParallelJoinCountMatchesSerialAndBrute(t *testing.T) {
	restore := SetParallelThresholds(1, 1)
	defer restore()
	sig := workload.EdgeSig()
	queries := []string{
		"q(s,t) := exists u, v. E(s,u) & E(u,v) & E(v,t)",
		"q(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)",
		"q(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"q(a,b,c,d) := E(a,b) & E(c,d)",
		"q(x) := E(x,x) & (exists s, u. E(s,u) & E(u,s))",
	}
	for _, src := range queries {
		p := compilePP(t, sig, src)
		ref, err := Compile(p, Brute)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Compile(p, FPT)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 6; seed++ {
			b := workload.RandomStructure(sig, 5, 0.35, seed)
			want, err := ref.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			s := SessionFor(b)
			serial, err := pl.(*fptPlan).CountInWorkers(s, 1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := pl.(*fptPlan).CountInWorkers(s, 8)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Cmp(want) != 0 || par.Cmp(want) != 0 {
				t.Fatalf("%s seed %d: serial %v, parallel %v, brute %v", src, seed, serial, par, want)
			}
		}
	}
}

// Parallel execution must stay bit-identical through the big.Int
// overflow fallback: hom(P_12, K_41^loop) = 41^13 > MaxInt64, counted
// with 1 and 8 workers and forced-low thresholds.
func TestParallelOverflowMatchesSerial(t *testing.T) {
	restore := SetParallelThresholds(1, 1)
	defer restore()
	const n, edges = 41, 12
	b := structure.New(workload.EdgeSig())
	for i := 0; i < n; i++ {
		if _, err := b.AddElem(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if err := b.AddTuple("E", i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := structure.New(workload.EdgeSig())
	all := make([]int, edges+1)
	for i := range all {
		v, err := a.AddElem(fmt.Sprintf("x%d", i))
		if err != nil {
			t.Fatal(err)
		}
		all[i] = v
	}
	for i := 0; i < edges; i++ {
		if err := a.AddTuple("E", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	p, err := pp.New(a, all)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(p, FPTNoCore)
	if err != nil {
		t.Fatal(err)
	}
	s := SessionFor(b)
	serial, err := pl.(*fptPlan).CountInWorkers(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := pl.(*fptPlan).CountInWorkers(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(big.NewInt(n), big.NewInt(edges+1), nil)
	if serial.Cmp(want) != 0 || par.Cmp(want) != 0 {
		t.Fatalf("serial %v, parallel %v, want %v", serial, par, want)
	}
	if par.IsInt64() {
		t.Fatal("instance too small to force the big.Int fallback")
	}
}

// Table prefix indexes: probing must return exactly the rows whose bound
// positions match, under both the packed and spilled codecs.
func TestTablePrefixIndex(t *testing.T) {
	tb := newTable(3, 5, nil)
	rows := [][]int{{0, 1, 2}, {0, 1, 3}, {1, 1, 2}, {4, 0, 0}}
	for _, r := range rows {
		tb.appendRow(r)
	}
	check := func() {
		ix := tb.prefixIndex([]int{0, 1})
		probe := func(vals []int) []int32 {
			if ix.codec.packed {
				return ix.probe(ix.codec.pack(vals))
			}
			return ix.sk[spillKey(vals, nil)]
		}
		if got := probe([]int{0, 1}); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("probe(0,1) = %v, want [0 1]", got)
		}
		if got := probe([]int{4, 0}); len(got) != 1 || got[0] != 3 {
			t.Fatalf("probe(4,0) = %v, want [3]", got)
		}
		if got := probe([]int{2, 2}); len(got) != 0 {
			t.Fatalf("probe(2,2) = %v, want empty", got)
		}
	}
	check()
	// Spilled codec: fresh table (the index cache is keyed per table).
	restore := SetPackedKeyBudget(0)
	defer restore()
	tb = newTable(3, 5, nil)
	for _, r := range rows {
		tb.appendRow(r)
	}
	check()
}

// Counting against an empty-universe structure through the exported
// CountIn/NewSession path (which skips Validate) must return 0, not
// panic (regression: projSize divided by the domain size).
func TestCountInEmptyUniverse(t *testing.T) {
	sig := workload.EdgeSig()
	pl, err := Compile(compilePP(t, sig, "q(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)"), FPTNoCore)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.CountIn(NewSession(structure.New(sig)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatalf("count on empty universe = %v, want 0", got)
	}
}

func TestWorkersKnob(t *testing.T) {
	if EffectiveWorkers(3) != 3 {
		t.Fatal("explicit workers must win")
	}
	restore := SetDefaultWorkers(2)
	if DefaultWorkers() != 2 || EffectiveWorkers(0) != 2 {
		restore()
		t.Fatal("SetDefaultWorkers not effective")
	}
	restore()
	if DefaultWorkers() < 1 {
		t.Fatal("default workers must be positive")
	}
	restore = SetDefaultWorkers(0)
	if DefaultWorkers() != runtime.GOMAXPROCS(0) {
		restore()
		t.Fatal("SetDefaultWorkers(0) must restore the GOMAXPROCS default")
	}
	restore()
}

// Bench-smoke regression guard (CI: make bench-smoke): on a medium
// multi-bag instance the parallel executor must not run more than 2x
// slower than the serial one — a same-machine relative bound that
// catches synchronization regressions without depending on absolute CI
// speed.  Gated behind EPCQ_BENCH_SMOKE so the normal test run stays
// fast.
func TestBenchSmokeParallelNoRegression(t *testing.T) {
	if os.Getenv("EPCQ_BENCH_SMOKE") == "" {
		t.Skip("set EPCQ_BENCH_SMOKE=1 to run the bench smoke guard")
	}
	sig := workload.EdgeSig()
	a := structure.New(sig)
	const k = 8
	all := make([]int, k+1)
	for i := range all {
		v, err := a.AddElem(fmt.Sprintf("x%d", i))
		if err != nil {
			t.Fatal(err)
		}
		all[i] = v
	}
	for i := 0; i < k; i++ {
		if err := a.AddTuple("E", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	p, err := pp.New(a, all)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(p, FPTNoCore)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.GraphStructure(workload.ER(300, 5.0/300, 7))
	s := SessionFor(b)
	fpt := pl.(*fptPlan)
	if _, err := fpt.CountInWorkers(s, 1); err != nil { // warm tables + plan
		t.Fatal(err)
	}
	measure := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			if _, err := fpt.CountInWorkers(s, workers); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := measure(1)
	par := measure(0)
	t.Logf("bench smoke: serial %v, parallel %v (%d cores)", serial, par, runtime.GOMAXPROCS(0))
	if par > 2*serial+2*time.Millisecond {
		t.Fatalf("parallel executor regressed: %v > 2x serial %v", par, serial)
	}
}

// A key-set wmap (the existence semiring of projectKeys) must behave the
// same in its three forms — one bit per key, open addressing, spill
// strings: a key is present once however often it is added, its weight
// stays 1, and merge is set union.
func TestWmapKeySetForms(t *testing.T) {
	forms := []struct {
		name   string
		dom    int
		budget int
	}{
		{"bits", 16, 64},       // 3 × 4 bits: flat
		{"slots", 1 << 10, 64}, // 3 × 10 bits: hashed
		{"spill", 16, 0},       // packed budget 0: strings
	}
	for _, f := range forms {
		restore := SetPackedKeyBudget(f.budget)
		codec := newKeyCodec(f.dom, 3)
		a, b := newWmap(codec, 0, true), newWmap(codec, 0, true)
		restore()
		one := wnum{lo: 1}
		for i := 0; i < 40; i++ {
			a.add([]int{i % 7, i % 5, i % 3}, one, nil)
		}
		for i := 0; i < 40; i++ {
			b.add([]int{i % 11, i % 5, i % 2}, one, nil)
		}
		want := map[[3]int]bool{}
		for i := 0; i < 40; i++ {
			want[[3]int{i % 7, i % 5, i % 3}] = true
		}
		if a.len() != len(want) {
			t.Fatalf("%s: len %d, want %d", f.name, a.len(), len(want))
		}
		for i := 0; i < 40; i++ {
			want[[3]int{i % 11, i % 5, i % 2}] = true
		}
		a.merge(b)
		if a.len() != len(want) {
			t.Fatalf("%s: len after merge %d, want %d", f.name, a.len(), len(want))
		}
		seen := 0
		a.forEach(make([]int, 3), func(vals []int, w wnum) {
			seen++
			if !want[[3]int{vals[0], vals[1], vals[2]}] || w != one {
				t.Fatalf("%s: forEach visited %v with weight %v", f.name, vals, w)
			}
		})
		if seen != len(want) {
			t.Fatalf("%s: forEach visited %d keys, want %d", f.name, seen, len(want))
		}
		for k := range want {
			if w, ok := a.get(k[:], nil); !ok || w != one {
				t.Fatalf("%s: get(%v) = %v, %v", f.name, k, w, ok)
			}
		}
		if _, ok := a.get([]int{15, 15, 15}, nil); ok {
			t.Fatalf("%s: absent key reported present", f.name)
		}
	}
}
