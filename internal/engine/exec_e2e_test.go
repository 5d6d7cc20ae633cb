package engine_test

import (
	"testing"

	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/pp"
	"repro/internal/workload"
)

// Executor key schemes: the packed-uint64 and wide-bag spill paths of the
// join-count DP must agree with brute-force evaluation on randomized
// queries/structures.
func TestExecutorKeySchemesAgreeWithBrute(t *testing.T) {
	sig := workload.EdgeSig()
	for seed := int64(0); seed < 25; seed++ {
		q := workload.RandomEPQuery(sig, 1, 4, 2, 3, seed)
		p, err := pp.FromDisjunct(sig, q.Lib, q.Disjuncts()[0])
		if err != nil {
			t.Fatal(err)
		}
		b := workload.RandomStructure(sig, 5, 0.35, seed+1000)
		want, err := count.EPDirect(q, b)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := count.PP(p, b)
		if err != nil {
			t.Fatal(err)
		}
		restore := engine.ForcePackedKeyBudget(0)
		spilled, err := count.PP(p, b)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if packed.Cmp(want) != 0 {
			t.Fatalf("seed %d: packed %v != brute %v (query %v)", seed, packed, want, q)
		}
		if spilled.Cmp(want) != 0 {
			t.Fatalf("seed %d: spilled %v != brute %v (query %v)", seed, spilled, want, q)
		}
	}
}
