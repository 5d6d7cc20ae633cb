//go:build !race

// The allocation budget is meaningful only without the race detector:
// -race instrumentation allocates on synchronization paths of its own.
package core

import (
	"testing"

	"repro/internal/workload"
)

// coldCompileAllocBudget bounds the heap objects one cold compile of the
// 200-query slice below makes: the measured value, 153 865, plus 5 %.
const coldCompileAllocBudget = 161_560

// TestColdCompileAllocBudget pins the query side's allocations:
// eptrans.Compile and engine.Compile of every φ⁻af term and sentence
// (compileFront: no plan cache, no parse) over the first 200 texts of the
// cold-query stream must stay within the budget.  testing.AllocsPerRun
// runs the slice once to warm up and reports the mean of the runs.
func TestColdCompileAllocBudget(t *testing.T) {
	qs := coldStream(200)
	sig := workload.EdgeSig()
	allocs := testing.AllocsPerRun(3, func() {
		for _, q := range qs {
			if err := compileFront(q, sig); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("cold compile of %d queries: %.0f allocs", len(qs), allocs)
	if allocs > coldCompileAllocBudget {
		t.Fatalf("cold compile of %d queries made %.0f allocs, budget %d", len(qs), allocs, coldCompileAllocBudget)
	}
}
