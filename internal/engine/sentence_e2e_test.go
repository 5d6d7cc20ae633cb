package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/workload"
)

// Equal sentences are decided once per session, whoever asks: a sentence
// disjunct of one Counter and a sentence component of another Counter's
// term — pointer-distinct, structurally equal, under different
// fingerprints — share one zero-width predicate table.  The first count
// leaves three tables in the session (the triangle's verdict and the E
// atom's two orientations, which its atoms and p's free disjunct read);
// the second adds none.  On a structure with a directed
// triangle and on one without, both counts match count.EPDirect.
func TestSentenceDecidedOncePerSession(t *testing.T) {
	srcs := []string{
		"p(x,y) := E(x,y) | (exists a, b, c. E(a,b) & E(b,c) & E(c,a))",
		"q(x,y) := E(x,y) & (exists u, v, w. E(u,v) & E(v,w) & E(w,u))",
	}
	for _, facts := range []string{
		"E(1,2). E(2,3). E(3,1). E(3,4).",
		"E(1,2). E(2,3). E(3,4). E(4,1).",
	} {
		b := parser.MustStructure(facts, workload.EdgeSig())
		for i, src := range srcs {
			q := parser.MustQuery(src)
			c, err := core.NewCounter(q, workload.EdgeSig(), count.EngineFPT)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := count.EPDirect(q, b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s on %s: count %v, want %v", src, facts, got, want)
			}
			if n := engine.CachedTables(engine.SessionFor(b)); n != 3 {
				t.Fatalf("%s on %s: after count %d the session holds %d tables, want 3", src, facts, i+1, n)
			}
		}
	}
}
