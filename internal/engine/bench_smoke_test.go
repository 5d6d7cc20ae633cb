package engine

import (
	"context"
	"math/big"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/workload"
)

// Bench-smoke regression guard (CI: make bench-smoke): on an append
// stream with a maintained keyed count, the delta-maintained mix (append
// a batch + keyed count per step) must beat the full-recount baseline by
// at least 20x — a same-machine relative bound that catches regressions
// in the incremental path (delta.go) without depending on absolute CI
// speed.  The instance has the degree (≈ 16) of the 260-element one it
// replaces, where the recount on rows (Table.rows) had come within 14–17x
// of the advance, on four times the universe: a recount follows the
// structure, the seeded walk the batch and the degree, and reads 45–85x.
// Gated behind EPCQ_BENCH_SMOKE so the normal test run stays fast.
func TestBenchSmokeDeltaAppendCountMix(t *testing.T) {
	if os.Getenv("EPCQ_BENCH_SMOKE") == "" {
		t.Skip("set EPCQ_BENCH_SMOKE=1 to run the bench smoke guard")
	}
	const n, steps, batchEdges = 1040, 24, 3
	sig := workload.EdgeSig()
	pl, err := Compile(compilePP(t, sig, "tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	batches := make([][batchEdges][2]int, steps)
	for i := range batches {
		for j := range batches[i] {
			batches[i][j] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
	}

	run := func(deltaOn bool) (time.Duration, *big.Int) {
		if !deltaOn {
			defer DisableDelta()()
		}
		b := workload.RandomStructure(sig, n, 0.015, 11)
		defer ReleaseSession(b)
		const fp = "bench-smoke-delta-mix"
		if _, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0); err != nil { // cold count outside the timing
			t.Fatal(err)
		}
		var last *big.Int
		start := time.Now()
		for _, batch := range batches {
			for _, e := range batch {
				if err := b.AddTuple("E", e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			if last, _, err = CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start), last
	}

	best := func(deltaOn bool) (time.Duration, *big.Int) {
		d, c := run(deltaOn)
		for r := 0; r < 2; r++ {
			if d2, c2 := run(deltaOn); d2 < d {
				if c2.Cmp(c) != 0 {
					t.Fatalf("nondeterministic final count: %v vs %v", c2, c)
				}
				d = d2
			}
		}
		return d, c
	}
	full, wantCount := best(false)
	delta, gotCount := best(true)
	if gotCount.Cmp(wantCount) != 0 {
		t.Fatalf("delta-maintained final count %v != full-recount final count %v", gotCount, wantCount)
	}
	t.Logf("bench smoke: append+count mix full-recount %v, delta-maintained %v (%.2fx)",
		full, delta, float64(full)/float64(delta))
	if 20*delta > full {
		t.Fatalf("delta maintenance regressed: %v not ≥20x faster than full recount %v", delta, full)
	}
}
