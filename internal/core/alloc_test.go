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

// CountBatchInto must agree with CountBatch on every path (inline and
// fanned out) and validate its output slice.
func TestCountBatchIntoMatchesCountBatch(t *testing.T) {
	q := parser.MustQuery("q(x,y) := E(x,y) | E(y,x)")
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	bs := make([]*structure.Structure, 6)
	for i := range bs {
		bs[i] = workload.RandomStructure(c.Signature(), 9, 0.4, 100+int64(i))
	}
	ref, err := c.CountBatch(bs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		c.WithWorkers(workers)
		out := make([]*big.Int, len(bs))
		for i := range out {
			out[i] = new(big.Int)
		}
		if err := c.CountBatchInto(context.Background(), bs, out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i].Cmp(ref[i]) != 0 {
				t.Fatalf("workers=%d structure %d: %v, want %v", workers, i, out[i], ref[i])
			}
		}
	}
	if err := c.CountBatchInto(context.Background(), bs, make([]*big.Int, 2)); err == nil {
		t.Fatal("mismatched out length accepted")
	}
}
