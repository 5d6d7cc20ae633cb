package pp

import (
	"testing"

	"repro/internal/structure"
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

// symmetricTerms returns the StarQuery(16) core and K_{6,6} with every
// element liberal: formulas whose labeling explores factorially many
// leaves unless automorphisms prune it.
func symmetricTerms(tb testing.TB) []PP {
	tb.Helper()
	sig := workload.EdgeSig()
	q := workload.StarQuery(16)
	star, err := FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
	if err != nil {
		tb.Fatal(err)
	}
	k66 := structure.New(sig)
	lib := make([]int, 12)
	for v := range lib {
		lib[v] = k66.FreshElem("v")
	}
	for u := 0; u < 6; u++ {
		for v := 6; v < 12; v++ {
			if err := k66.AddTuple("E", u, v); err != nil {
				tb.Fatal(err)
			}
		}
	}
	bip, err := New(structure.AtomsOf(k66), lib)
	if err != nil {
		tb.Fatal(err)
	}
	return []PP{star.Core(), bip}
}

// BenchmarkFrontEnd_CanonicalKey labels the cored cold-query terms and,
// beside them, the symmetric terms: a return to factorial search
// overruns the labeling budget there and fails the benchmark.
func BenchmarkFrontEnd_CanonicalKey(b *testing.B) {
	terms := frontEndTerms(b, 32)
	for i, p := range terms {
		terms[i] = p.Core()
	}
	terms = append(terms, symmetricTerms(b)...)
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
