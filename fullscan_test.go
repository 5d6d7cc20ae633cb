package epcq_test

import (
	"testing"

	epcq "repro"
	"repro/internal/count"
	"repro/internal/structure"
	"repro/internal/workload"
)

// The whole counting pipeline — ep compilation (inclusion–exclusion with
// canonical interning), the ie signed sum, the union counters, batch and
// parallel counting — must never touch the deprecated Tuples/TuplesWith
// full-scan shims.  This extends the per-layer zero-full-scan tests
// (relation store, session materialization) end to end across the
// ie/union paths.
func TestZeroFullScansAcrossIEAndUnionPaths(t *testing.T) {
	q := epcq.MustParseQuery(`u(w,x,y,z) := E(x,y) & E(y,z)
		| E(y,z) & E(z,w)
		| E(z,w) & E(w,x)
		| E(w,x) & E(x,y)
		| exists a, b, c. E(a,b) & E(b,c) & E(c,a)`)
	bs := make([]*structure.Structure, 4)
	for i := range bs {
		bs[i] = workload.RandomStructure(workload.EdgeSig(), 8, 0.25, int64(i))
	}

	before := structure.FullScanCount()

	c, err := epcq.NewCounter(q, nil, epcq.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(bs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CountBatch(bs); err != nil {
		t.Fatal(err)
	}
	// The union counters: direct enumeration and the pooled IE pipeline.
	if _, err := count.EPUnion(c.Compiled.Disjuncts, bs[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := count.EPUnionTerms(c.Compiled.Disjuncts, bs[2], count.EngineFPT, nil); err != nil {
		t.Fatal(err)
	}

	if d := structure.FullScanCount() - before; d != 0 {
		t.Fatalf("ie/union counting paths performed %d deprecated full scans, want 0", d)
	}
}
