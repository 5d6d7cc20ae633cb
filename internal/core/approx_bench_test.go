package core

import (
	"context"
	"testing"

	"repro/internal/approx"
	"repro/internal/count"
	"repro/internal/structure"
	"repro/internal/workload"
)

// BenchmarkApprox_HardMix is the approx-hard workload's request mix in
// process: one CountApproxCtx per op with a fresh sampler seed, 70 %
// free K4 on ER(40, 0.4) and 30 % free K5 on ER(30, 0.6) (input seed
// 20160626, the K5 graph at +100 as the workload draws it).  Every op
// borrows its samplers from the structure's session, as a request does:
// the first op of each (term, structure) pair builds them and fills
// their first-fixing memos, and later ops find them warm (a GC may drop
// pooled samplers, which are then rebuilt).  ns/op is the cost of one
// request's estimate.
func BenchmarkApprox_HardMix(b *testing.B) {
	type class struct {
		c *Counter
		s *structure.Structure
	}
	mk := func(k, n int, p float64, seed int64) class {
		c, err := NewCounter(workload.CliqueQuery(k), nil, count.EngineFPT)
		if err != nil {
			b.Fatal(err)
		}
		return class{c, workload.GraphStructure(workload.ER(n, p, seed))}
	}
	k4, k5 := mk(4, 40, 0.4, 20160626), mk(5, 30, 0.6, 20160626+100)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := k4
		if i%10 >= 7 {
			cl = k5
		}
		res, err := cl.c.CountApproxCtx(ctx, cl.s, approx.Params{Epsilon: 0.1, Delta: 0.05, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Estimate.Sign() == 0 {
			b.Fatal("expected cliques")
		}
	}
}
