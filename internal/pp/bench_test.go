package pp

import (
	"testing"

	"repro/internal/workload"
)

// frontEndTerms returns the raw inclusion–exclusion conjunctions φ_J
// (every non-empty J) of the first nQueries queries of the pinned
// benchmark's cold-query stream: the formulas Core and CanonicalKey see
// in the serving path.
func frontEndTerms(tb testing.TB, nQueries int) []PP {
	tb.Helper()
	sig := workload.EdgeSig()
	var out []PP
	for seed := 0; seed < nQueries; seed++ {
		q := workload.RandomEPQuery(sig, 4, 6, 2, 5, int64(seed))
		var ds []PP
		for _, d := range q.Disjuncts() {
			p, err := FromDisjunct(sig, q.Lib, d)
			if err != nil {
				tb.Fatal(err)
			}
			ds = append(ds, p)
		}
		for mask := 1; mask < 1<<len(ds); mask++ {
			var parts []PP
			for j := range ds {
				if mask&(1<<j) != 0 {
					parts = append(parts, ds[j])
				}
			}
			c, err := Conjoin(parts...)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, c)
		}
	}
	return out
}

var (
	sinkPP  PP
	sinkKey string
)

func BenchmarkFrontEnd_Core(b *testing.B) {
	terms := frontEndTerms(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPP = terms[i%len(terms)].Core()
	}
}

func BenchmarkFrontEnd_CanonicalKey(b *testing.B) {
	terms := frontEndTerms(b, 32)
	for i, p := range terms {
		terms[i] = p.Core()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := terms[i%len(terms)].CanonicalKey()
		if err != nil {
			b.Fatal(err)
		}
		sinkKey = k
	}
}
