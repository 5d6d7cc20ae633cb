//go:build !race

// The race detector's sync.Pool drops pooled items at random, so the
// scratch and accumulators a run takes from its pools are allocated again
// at random under -race: allocation counts are only meaningful without it.

package engine

import (
	"testing"

	"repro/internal/workload"
)

// A run allocates per node, never per binding: joinCount on a bound
// triangle (one node, its last position a row tail) and on a bound free
// 3-path (three nodes, each keyed on what it shares) makes as many
// allocations over 240 elements as over 120 — node output tables, the
// result, and nothing the loop does for a binding.
func TestJoinCountAllocsIndependentOfUniverse(t *testing.T) {
	for _, src := range []string{
		"tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"fp3(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)",
	} {
		var allocs [2]float64
		for i, n := range []int{120, 240} {
			b := workload.RandomStructure(workload.EdgeSig(), n, 8.0/float64(n), 20160626)
			pc, ep := boundJoin(t, src, b)
			allocs[i] = testing.AllocsPerRun(50, func() {
				if _, aborted := joinCount(pc, ep, n, nil); aborted {
					t.Fatal("aborted")
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations a run at |B| = 120, %v at 240", src, allocs[0], allocs[1])
		}
		t.Logf("%s: %v allocations a run", src, allocs[0])
	}
}
