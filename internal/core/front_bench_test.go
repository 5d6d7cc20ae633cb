package core

import (
	"context"
	"testing"

	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/structure"
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

// coldStream returns the first n queries of BenchmarkColdQuery_Front's
// stream, parsed from their texts as a request's are.
func coldStream(n int) []logic.Query {
	const seed = 20160626
	qs := make([]logic.Query, n)
	for i := range qs {
		qs[i] = parser.MustQuery(workload.RandomEPQuery(workload.EdgeSig(), 4, 6, 2, 5, seed+int64(i)).String())
	}
	return qs
}

// compileFront is NewCounter's compile work without its plan cache:
// Theorem 3.1's front end (eptrans.Compile), then a plan for every φ⁻af
// term and every sentence (engine.Compile).
func compileFront(q logic.Query, sig *structure.Signature) error {
	cp, err := eptrans.Compile(q, sig)
	if err != nil {
		return err
	}
	for _, t := range cp.Minus {
		if _, err := engine.Compile(t.Formula, engine.FPT); err != nil {
			return err
		}
	}
	for _, th := range cp.Sentences {
		if _, err := engine.Compile(th, engine.FPT); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkCompile_Front is compileFront over the cold-query stream, one
// query per op: the front end and the plans alone, with neither the
// parse nor the count of BenchmarkColdQuery_Front, and no plan cache to
// hit.
func BenchmarkCompile_Front(b *testing.B) {
	qs := coldStream(3000)
	sig := workload.EdgeSig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := compileFront(qs[i%len(qs)], sig); err != nil {
			b.Fatal(err)
		}
	}
}
