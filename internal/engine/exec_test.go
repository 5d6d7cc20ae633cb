package engine

import (
	"context"
	"math/big"
	"runtime"
	"testing"

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
			pl, err := Compile(compilePP(t, sig, src), FPT)
			if err != nil {
				t.Fatal(err)
			}
			v, err := pl.CountIn(context.Background(), SessionFor(b))
			if err != nil {
				t.Fatal(err)
			}
			packed = append(packed, v)
		}
		restore := ForcePackedKeyBudget(0)
		for i, src := range queries {
			pl, err := Compile(compilePP(t, sig, src), FPT)
			if err != nil {
				restore()
				t.Fatal(err)
			}
			// Fresh session: the cached exec plan of the packed run was
			// built under the packed budget; the spill path needs its own.
			v, err := pl.CountIn(context.Background(), NewSession(b))
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

// Table prefix indexes: probing must return exactly the rows whose bound
// positions match, under both the packed and spilled codecs.
func TestTablePrefixIndex(t *testing.T) {
	tb := newTable(3, 5)
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
	restore := ForcePackedKeyBudget(0)
	defer restore()
	tb = newTable(3, 5)
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
	pl, err := Compile(compilePP(t, sig, "q(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.CountIn(context.Background(), NewSession(structure.New(sig)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatalf("count on empty universe = %v, want 0", got)
	}
}

// A count is one goroutine: the join-count DP runs on its caller's, so a
// request is the unit of parallelism.  Cycle-6 on ER(200, 6/200) is a
// ~10 ms count whose table rows and pivot sizes are well above anything
// a fan-out threshold could sit at; while it is counted ten times with
// GOMAXPROCS raised to 4, a poller must never see a goroutine beyond
// itself and the baseline.
func TestCountRunsOnTheCallersGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p, err := pp.New(structure.AtomsOf(workload.GraphStructure(workload.CycleGraph(6))), []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(workload.GraphStructure(workload.ER(200, 6.0/200, 7)))
	want, err := pl.CountIn(context.Background(), s) // materializes tables, binds the plan
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	peak := 0 // the poller's until polled closes
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		recs := make([]runtime.StackRecord, base+16)
		for {
			n := runtime.NumGoroutine()
			if n > base+1 {
				// NumGoroutine reads the scheduler's counters without
				// synchronization and overshoots now and then; a profile
				// into a real buffer stops the world to count.
				n, _ = runtime.GoroutineProfile(recs)
			}
			if n > peak {
				peak = n
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	// A live, never-fired context: the cancellable path is the serving one.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 10; i++ {
		got, err := CountInCtx(ctx, pl, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("count %d: %v, want %v", i, got, want)
		}
	}
	close(stop)
	<-polled
	if peak > base+1 {
		t.Fatalf("goroutines peaked at %d during serial counts, want at most %d (baseline %d + the poller)", peak, base+1, base)
	}
}

// A key-set wmap (the existence semiring of projectKeys) must behave the
// same in its three forms — one bit per key, open addressing, spill
// strings: a key is present once however often it is added, and its
// weight stays 1.
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
		restore := ForcePackedKeyBudget(f.budget)
		codec := newKeyCodec(f.dom, 3)
		a := newWmap(codec, 0, true, false)
		restore()
		one := wnum{lo: 1}
		for i := 0; i < 40; i++ {
			a.add([]int{i % 7, i % 5, i % 3}, one, nil)
		}
		want := map[[3]int]bool{}
		for i := 0; i < 40; i++ {
			want[[3]int{i % 7, i % 5, i % 3}] = true
		}
		if a.len() != len(want) {
			t.Fatalf("%s: len %d, want %d", f.name, a.len(), len(want))
		}
		for i := 0; i < 40; i++ { // a second, overlapping batch
			a.add([]int{i % 11, i % 5, i % 2}, one, nil)
			want[[3]int{i % 11, i % 5, i % 2}] = true
		}
		if a.len() != len(want) {
			t.Fatalf("%s: len after the second batch %d, want %d", f.name, a.len(), len(want))
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
