package engine_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/workload"
)

// The case-2 corner of Theorem 3.2: a clique sentence, whose contract
// graph is empty but whose core is K_k.  The DP decides it as a
// zero-width predicate over the clique (one bag of k variables), the hom
// solver by backtracking; both side by side, on ER(40) — atom tables on
// tuples — and ER(120) — on rows — dense, sparse, and sparse with a
// planted k-clique.  Every DP op gets a fresh session, so it
// materializes the atom tables and decides the sentence from scratch.

func benchSentence(b *testing.B, k int) {
	q := workload.CliqueSentence(k)
	p, err := pp.FromDisjunct(workload.EdgeSig(), nil, q.Disjuncts()[0])
	if err != nil {
		b.Fatal(err)
	}
	pl, err := engine.Compile(p, engine.FPT)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{40, 120} {
		for _, g := range []struct {
			name string
			g    *graph.Graph
		}{
			{"dense", workload.ER(n, 0.5, 1)},
			{"sparse", workload.ER(n, 0.1, 1)},
			{"planted", workload.PlantedClique(n, 0.1, k, 1)},
		} {
			bs := workload.GraphStructure(g.g)
			b.Run(fmt.Sprintf("ER%d_%s/dp", n, g.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pl.CountIn(context.Background(), engine.NewSession(bs)); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("ER%d_%s/hom", n, g.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					hom.Exists(p.A, bs, hom.Options{})
				}
			})
		}
	}
}

func BenchmarkMaterialize_Sentence_K4(b *testing.B) { benchSentence(b, 4) }

func BenchmarkMaterialize_Sentence_K5(b *testing.B) { benchSentence(b, 5) }
