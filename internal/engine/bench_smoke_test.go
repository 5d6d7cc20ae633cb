package engine

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/workload"
)

// Bench-smoke regression guard (CI: make bench-smoke): on an append
// stream with maintained keyed counts, the delta-maintained mix (append
// a batch + keyed counts per step) must beat the full-recount baseline by
// at least 20x — a same-machine relative bound that catches regressions
// in the incremental path (delta.go) without depending on absolute CI
// speed.  Three regimes:
//
//   - sparse: the triangle on 1040 elements of degree ≈ 16, where the
//     recount on rows (Table.rows) had come within 14–17x of the advance
//     on a 260-element graph: a recount follows the structure, the seeded
//     walk the batch and the degree, and reads 45–85x;
//   - dense: the triangle and the 4-cycle on G(200, 0.35), where a delta
//     term's supports cover most of the universe.  Delta terms that walked
//     posting lists and hashed tuples read ≈ 5x here (31 against 145 ms
//     for the 24 steps, 2 vCPUs); on the store's rows they read ≈ 40x, so
//     a silent fallback to tuples fails the guard;
//   - posting: the triangle and the 4-cycle on G(4000, 0.001), where E is
//     too sparse for its universe to keep rows (BitRowsFit), so a delta
//     term walks the posting lists of its seed values (RowsWith) and stops
//     each at the snapshot cut.  It reads ≈ 400x; a walk that scans the
//     row range instead of the lists reads ≈ 8x and fails the guard.
//
// Gated behind EPCQ_BENCH_SMOKE so the normal test run stays fast.
func TestBenchSmokeDeltaAppendCountMix(t *testing.T) {
	if os.Getenv("EPCQ_BENCH_SMOKE") == "" {
		t.Skip("set EPCQ_BENCH_SMOKE=1 to run the bench smoke guard")
	}
	const steps, batchEdges = 24, 3
	sig := workload.EdgeSig()
	tri, c4 := "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)", "c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)"
	for _, tc := range []struct {
		name    string
		n       int
		density float64
		queries []string
	}{
		{"sparse", 1040, 0.015, []string{tri}},
		{"dense", 200, 0.35, []string{tri, c4}},
		{"posting", 4000, 0.001, []string{tri, c4}},
	} {
		var plans []Plan
		for _, src := range tc.queries {
			pl, err := Compile(compilePP(t, sig, src), FPT)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, pl)
		}
		rng := rand.New(rand.NewSource(12))
		batches := make([][batchEdges][2]int, steps)
		for i := range batches {
			for j := range batches[i] {
				batches[i][j] = [2]int{rng.Intn(tc.n), rng.Intn(tc.n)}
			}
		}

		run := func(deltaOn bool) (time.Duration, []*big.Int) {
			if !deltaOn {
				defer DisableDelta()()
			}
			b := workload.RandomStructure(sig, tc.n, tc.density, 11)
			defer ReleaseSession(b)
			read := func() []*big.Int {
				var out []*big.Int
				for i, pl := range plans {
					v, _, err := CountKeyedCtx(context.Background(), pl, fmt.Sprintf("bench-smoke-delta-mix-%d", i), SessionFor(b), 0)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, v)
				}
				return out
			}
			read() // cold counts outside the timing
			var last []*big.Int
			start := time.Now()
			for _, batch := range batches {
				for _, e := range batch {
					if err := b.AddTuple("E", e[0], e[1]); err != nil {
						t.Fatal(err)
					}
				}
				last = read()
			}
			return time.Since(start), last
		}

		best := func(deltaOn bool) (time.Duration, []*big.Int) {
			d, c := run(deltaOn)
			for r := 0; r < 2; r++ {
				if d2, c2 := run(deltaOn); d2 < d {
					if fmt.Sprint(c2) != fmt.Sprint(c) {
						t.Fatalf("%s: nondeterministic final counts: %v vs %v", tc.name, c2, c)
					}
					d = d2
				}
			}
			return d, c
		}
		full, wantCounts := best(false)
		delta, gotCounts := best(true)
		if fmt.Sprint(gotCounts) != fmt.Sprint(wantCounts) {
			t.Fatalf("%s: delta-maintained final counts %v != full-recount final counts %v", tc.name, gotCounts, wantCounts)
		}
		t.Logf("bench smoke %s: append+count mix full-recount %v, delta-maintained %v (%.2fx)",
			tc.name, full, delta, float64(full)/float64(delta))
		if 20*delta > full {
			t.Fatalf("%s: delta maintenance regressed: %v not ≥20x faster than full recount %v", tc.name, delta, full)
		}
	}
}
