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

// Memo-warm batch serving: after the warm pass every count comes out of
// session memos.  TestCountBatchIntoZeroAllocMemoWarm pins this at 0
// allocs/op.
func BenchmarkCountBatchInto_MemoWarm(b *testing.B) {
	q := parser.MustQuery("q(x,y,z) := E(x,y) & E(y,z)")
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		b.Fatal(err)
	}
	c.WithWorkers(1)
	bs := make([]*structure.Structure, 16)
	out := make([]*big.Int, len(bs))
	for i := range bs {
		bs[i] = workload.RandomStructure(c.Signature(), 12, 0.3, int64(i))
		out[i] = new(big.Int)
	}
	ctx := context.Background()
	if err := c.CountBatchInto(ctx, bs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.CountBatchInto(ctx, bs, out); err != nil {
			b.Fatal(err)
		}
	}
}
