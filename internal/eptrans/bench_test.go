package eptrans

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/workload"
)

// frontEndStream is the query stream of the pinned benchmark's cold-query
// workload: pairwise-distinct four-disjunct ep-queries over {E/2}.
func frontEndStream(n int) []logic.Query {
	qs := make([]logic.Query, n)
	for i := range qs {
		qs[i] = workload.RandomEPQuery(workload.EdgeSig(), 4, 6, 2, 5, int64(i))
	}
	return qs
}

var sinkCompiled *Compiled

// BenchmarkFrontEnd_ColdCompile measures the whole Theorem 3.1 front-end
// (normalize, expand, core, fingerprint, intern, filter) per query; no
// cache sits in front of Compile, so every iteration is cold.
func BenchmarkFrontEnd_ColdCompile(b *testing.B) {
	qs := frontEndStream(256)
	sig := workload.EdgeSig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Compile(qs[i%len(qs)], sig)
		if err != nil {
			b.Fatal(err)
		}
		sinkCompiled = c
	}
}
