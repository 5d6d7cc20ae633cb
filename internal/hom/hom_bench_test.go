package hom

import (
	"math/rand"
	"testing"

	"repro/internal/structure"
	"repro/internal/workload"
)

// Candidate-generation benchmarks: the solver's propagate loop dominates
// hom checks on large structures, and its cost is set by how candidate
// B-tuples are produced (posting-list lookups vs full relation scans).

func pathPattern(k int) *structure.Structure {
	a := structure.New(workload.EdgeSig())
	for i := 0; i <= k; i++ {
		a.FreshElem("p")
	}
	for i := 0; i < k; i++ {
		_ = a.AddTuple("E", i, i+1)
	}
	return a
}

func erStructure(n int, avgDeg float64, seed int64) *structure.Structure {
	return workload.GraphStructure(workload.ER(n, avgDeg/float64(n), seed))
}

func BenchmarkHom_ExistsPath6_N1500(b *testing.B) {
	a := pathPattern(6)
	bs := erStructure(1500, 4.0, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Exists(structure.AtomsOf(a), bs, Options{}) {
			b.Fatal("expected a homomorphism")
		}
	}
}

func BenchmarkHom_CountPath4_N300(b *testing.B) {
	a := pathPattern(4)
	bs := erStructure(300, 4.0, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Count(structure.AtomsOf(a), bs, Options{}).Sign() == 0 {
			b.Fatal("expected homomorphisms")
		}
	}
}

func BenchmarkHom_ForEachExtendablePath4_N800(b *testing.B) {
	a := pathPattern(4)
	bs := erStructure(800, 3.0, 13)
	proj := []int{0, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		ForEachExtendable(structure.AtomsOf(a), bs, proj, Options{}, func([]int) bool {
			total++
			return true
		})
		if total == 0 {
			b.Fatal("expected extendable assignments")
		}
	}
}

// cliquePattern is the canonical structure of workload.CliqueQuery(k):
// elements x1..xk with E(xi,xj) for i < j, every element liberal.
func cliquePattern(k int) (*structure.Structure, []int) {
	a := structure.New(workload.EdgeSig())
	proj := make([]int, k)
	for i := range proj {
		proj[i] = a.FreshElem("x")
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			_ = a.AddTuple("E", i, j)
		}
	}
	return a, proj
}

// The sampler benchmarks run on the approx-hard workload's pinned
// inputs (benchmark/workload.go: free K4 on ER(40, 0.4) and free K5 on
// ER(30, 0.6), input seed 20160626).  Hom_Sampler* draws from one
// sampler, whose memo of the first two fixings was prefilled at
// construction: ns/op is the cost of one draw, a copy of a memo entry
// and the propagations after it.  Hom_SamplerBuild* is that
// construction, the initial propagation and the prefill, which a
// request pays once per sampler: a request borrows its samplers from
// the structure's session, warm after the first request.
// BenchmarkApprox_HardMix (internal/core) measures whole requests.

func benchSampler(b *testing.B, k, n int, p float64, seed int64) {
	a, proj := cliquePattern(k)
	sp := NewSampler(structure.AtomsOf(a), workload.GraphStructure(workload.ER(n, p, seed)), proj, Options{})
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += sp.Sample(rng)
	}
	if sum == 0 {
		b.Fatal("expected a live draw")
	}
}

func benchSamplerBuild(b *testing.B, k, n int, p float64, seed int64) {
	a, proj := cliquePattern(k)
	atoms, g := structure.AtomsOf(a), workload.GraphStructure(workload.ER(n, p, seed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sp := NewSampler(atoms, g, proj, Options{}); sp.ExactZero() || sp.depth != 2 {
			b.Fatalf("exact zero %v, memo depth %d: want a live depth-2 memo", sp.ExactZero(), sp.depth)
		}
	}
}

func BenchmarkHom_SamplerK4_N40(b *testing.B)       { benchSampler(b, 4, 40, 0.4, 20160626) }
func BenchmarkHom_SamplerK5_N30(b *testing.B)       { benchSampler(b, 5, 30, 0.6, 20160726) }
func BenchmarkHom_SamplerBuild_K4_N40(b *testing.B) { benchSamplerBuild(b, 4, 40, 0.4, 20160626) }
func BenchmarkHom_SamplerBuild_K5_N30(b *testing.B) { benchSamplerBuild(b, 5, 30, 0.6, 20160726) }
