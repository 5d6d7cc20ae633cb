package engine

import "testing"

// Direct semi-join prune benchmarks over chain components on layered
// DAGs — the two fixpoint regimes:
//
//   - Trickle: a deep target, so every round trims another boundary
//     layer's rows while most rows survive to the cap.  This is the
//     regime where per-round table copies and support rescans hurt.
//   - Empties: a shallow target that cannot hold the chain, so the
//     supports collapse and the pass decides the count is zero.
//
// Prune never mutates its inputs, so every iteration prunes the same
// tables and pays for its own compacted copies.
func benchPrune(b *testing.B, nvars, layers, width, deg int) {
	pc := chainComponent(nvars)
	tables, dom := layeredEdgeTables(nvars-1, layers, width, deg, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		semiJoinPrune(pc, tables, dom)
	}
}

func BenchmarkSemiJoinPrune_Trickle_Deep12(b *testing.B)   { benchPrune(b, 9, 12, 256, 6) }
func BenchmarkSemiJoinPrune_Empties_Shallow4(b *testing.B) { benchPrune(b, 7, 4, 256, 6) }

func BenchmarkSemiJoinPrune_Trickle_Chain24(b *testing.B) { benchPrune(b, 24, 30, 128, 6) }
