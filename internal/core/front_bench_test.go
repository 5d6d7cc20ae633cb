package core

import (
	"context"
	"testing"

	"repro/internal/count"
	"repro/internal/parser"
	"repro/internal/workload"
)

// BenchmarkColdQuery_Front is the repository benchmark's cold-query
// stream in process: 3 000 pairwise-distinct query texts from
// workload.RandomEPQuery(EdgeSig(), 4, 6, 2, 5, ·) at input seed
// 20160626, on the workload's 10-element structure.  Each op parses one
// text, compiles it with NewCounter and counts it with CountCtx, so
// ns/op and allocs/op are the cost of one cold request's front end and
// count.  The stream is far longer than the plan and classification
// caches, as the workload's is.
func BenchmarkColdQuery_Front(b *testing.B) {
	const seed, stream = 20160626, 3000
	texts := make([]string, stream)
	for i := range texts {
		texts[i] = workload.RandomEPQuery(workload.EdgeSig(), 4, 6, 2, 5, seed+int64(i)).String()
	}
	s := workload.RandomStructure(workload.EdgeSig(), 10, 0.3, seed)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := parser.ParseQuery(texts[i%stream])
		if err != nil {
			b.Fatal(err)
		}
		c, err := NewCounter(q, s.Signature(), count.EngineFPT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.CountCtx(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
}
