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
	"repro/internal/hom"
	"repro/internal/parser"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Steady-state serving: once every sentence's and term's fingerprint is
// settled in the structures' sessions, CountBatchInto must not allocate
// at all — sentence and term counts (a sentence disjunct that holds
// counts |B|^|lib|) come out of the session memo by pointer, products go
// through a pooled temporary, and results land in caller-owned
// big.Ints.  The second query's triangle sentence holds on three of its
// four structures, so both sides of the short-circuit run.
func TestCountBatchIntoZeroAllocMemoWarm(t *testing.T) {
	path := parser.MustStructure("E(a,b). E(b,c). E(c,d).", workload.EdgeSig())
	for _, in := range []struct {
		src   string
		holds int // structures the sentence disjunct holds on
	}{
		{"q(x,y,z) := E(x,y) & E(y,z)", 0},
		{"q(x,y) := E(x,y) | (exists a. exists b. exists c. E(a,b) & E(b,c) & E(c,a))", 3},
	} {
		c, err := NewCounter(parser.MustQuery(in.src), nil, count.EngineFPT)
		if err != nil {
			t.Fatal(err)
		}
		c.WithWorkers(1) // inline batch loop: no fan-out goroutines
		bs := make([]*structure.Structure, 4)
		out := make([]*big.Int, len(bs))
		holds := 0
		for i := range bs {
			bs[i] = workload.RandomStructure(c.Compiled.Sig, 12, 0.3, int64(i))
			if i == 3 && in.holds > 0 {
				bs[i] = path // triangle-free
			}
			for _, th := range c.Compiled.Sentences {
				if hom.Exists(th.A, bs[i], hom.Options{}) {
					holds++
				}
			}
			out[i] = new(big.Int)
		}
		if holds != in.holds {
			t.Fatalf("%s: the sentence holds on %d structures, want %d", in.src, holds, in.holds)
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
			t.Fatalf("%s: memo-warm CountBatchInto allocates %.2f objects per batch, want 0", in.src, avg)
		}
		for i := range out {
			if out[i].Cmp(want[i]) != 0 {
				t.Fatalf("%s structure %d: warm result %v != first pass %v", in.src, i, out[i], want[i])
			}
			if direct, err := count.EPDirect(c.Compiled.Query, bs[i]); err != nil || direct.Cmp(out[i]) != 0 {
				t.Fatalf("%s structure %d: count %v, direct %v (%v)", in.src, i, out[i], direct, err)
			}
		}
	}
}
