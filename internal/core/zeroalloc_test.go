//go:build !race

// The zero-allocation assertion is meaningful only without the race
// detector: -race instrumentation itself allocates on synchronization
// paths, so the memo-warm guarantee is pinned in the plain suite.
package core

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/count"
	"repro/internal/parser"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Steady-state serving: once every term's fingerprint is settled in the
// structures' sessions, CountBatchInto must not allocate at all — term
// counts come out of the session memo by pointer, products go through
// pooled temporaries, and results land in caller-owned big.Ints.
func TestCountBatchIntoZeroAllocMemoWarm(t *testing.T) {
	q := parser.MustQuery("q(x,y,z) := E(x,y) & E(y,z)")
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	c.WithWorkers(1) // inline batch loop: no fan-out goroutines
	bs := make([]*structure.Structure, 4)
	out := make([]*big.Int, len(bs))
	for i := range bs {
		bs[i] = workload.RandomStructure(c.Compiled.Sig, 12, 0.3, int64(i))
		out[i] = new(big.Int)
	}
	ctx := context.Background()
	// Warm pass: materialize tables, settle every fingerprint, size the
	// destination big.Ints.
	if err := c.CountBatchInto(ctx, bs, out); err != nil {
		t.Fatal(err)
	}
	want := make([]*big.Int, len(out))
	for i, v := range out {
		want[i] = new(big.Int).Set(v)
	}
	// A background GC emptying the scratch pool mid-measurement can cost
	// a stray allocation; retry before declaring a real regression.
	var avg float64
	for attempt := 0; attempt < 3; attempt++ {
		avg = testing.AllocsPerRun(50, func() {
			if err := c.CountBatchInto(ctx, bs, out); err != nil {
				t.Fatal(err)
			}
		})
		if avg == 0 {
			break
		}
	}
	if avg != 0 {
		t.Fatalf("memo-warm CountBatchInto allocates %.2f objects per batch, want 0", avg)
	}
	for i := range out {
		if out[i].Cmp(want[i]) != 0 {
			t.Fatalf("structure %d: warm result %v != first pass %v", i, out[i], want[i])
		}
	}
}
