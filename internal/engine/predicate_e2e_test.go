package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/structure"
	"repro/internal/workload"
)

// End to end over the nested projection DP: random ep-queries with
// quantified variables — the generator repeats relations, closes cycles
// and leaves atoms on liberal variables alone — compiled and counted by
// core.Counter under EngineFPT, as the server does, must agree with the
// brute-force reference count.EPDirect on random structures, the
// one-element universe included.  The signature has two relations so that
// one of them can be empty.
func TestRandomEPQueriesMatchEPDirect(t *testing.T) {
	sig := structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "F", Arity: 2},
	)
	rounds := int64(150)
	if testing.Short() {
		rounds = 40
	}
	for seed := int64(0); seed < rounds; seed++ {
		q := workload.RandomEPQuery(sig, 1+int(seed%3), 5, 2, 5, seed)
		c, err := core.NewCounter(q, sig, count.EngineFPT)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, n := range []int{1, 3, 5} {
			density := 0.15 + 0.1*float64(seed%5)
			b := workload.RandomStructure(sig, n, density, seed*7+int64(n))
			if seed%4 == 0 { // F empty
				b = emptied(b, "F")
			}
			got, err := c.Count(b)
			if err != nil {
				t.Fatalf("seed %d n %d: %v", seed, n, err)
			}
			want, err := count.EPDirect(q, b)
			if err != nil {
				t.Fatalf("seed %d n %d: %v", seed, n, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("seed %d n %d: FPT %v, EPDirect %v\nquery %v\nstructure %v", seed, n, got, want, q, b)
			}
			engine.ReleaseSession(b)
		}
	}
}

// emptied returns a copy of b without the tuples of rel.
func emptied(b *structure.Structure, rel string) *structure.Structure {
	out := structure.New(b.Signature())
	for i := 0; i < b.Size(); i++ {
		out.EnsureElem(b.ElemName(i))
	}
	for _, r := range b.Signature().Rels() {
		if r.Name == rel {
			continue
		}
		b.ForEachTuple(r.Name, func(t []int) bool {
			_ = out.AddTuple(r.Name, t...)
			return true
		})
	}
	return out
}
