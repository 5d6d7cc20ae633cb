// Hot-path benchmarks: workloads decided entirely by the semi-join
// prune fixpoint, and the read after an append.
package epcq_test

import (
	"context"
	"math/rand"
	"testing"

	epcq "repro"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/structure"
	"repro/internal/workload"
)

// layeredStructure is a dense layered DAG: width vertices per layer,
// each non-final vertex wired to deg random vertices in the next layer.
// The longest directed walk has exactly layers-1 edges, so any path
// pattern longer than that has no homomorphisms — and because path
// queries are acyclic, the semi-join prune alone discovers this: the
// middle variable of a path-6 pattern needs both a 3-step in-walk and a
// 3-step out-walk, which a 4-layer target cannot supply, so the prune
// fixpoint empties its support within three rounds and the join DP
// never runs.  These benchmarks therefore time table materialization
// plus the prune pass and nothing else.
func layeredStructure(layers, width, deg int, seed int64) *structure.Structure {
	a := structure.New(workload.EdgeSig())
	n := layers * width
	for i := 0; i < n; i++ {
		a.EnsureElem("v" + string(rune('a'+i/676%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i%26)))
	}
	rng := rand.New(rand.NewSource(seed))
	for l := 0; l < layers-1; l++ {
		for j := 0; j < width; j++ {
			u := l*width + j
			for d := 0; d < deg; d++ {
				_ = a.AddTuple("E", u, (l+1)*width+rng.Intn(width))
			}
		}
	}
	return a
}

func benchPrunePath6(b *testing.B, width int) {
	pattern := pathStructure(6)
	bs := layeredStructure(4, width, 8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Session-cold every iteration: the prune result is memoized per
		// (component, session), so a warm session would time a map hit.
		engine.ReleaseSession(bs)
		v, err := count.Homomorphisms(pattern, bs)
		if err != nil {
			b.Fatal(err)
		}
		if v.Sign() != 0 {
			b.Fatal("a 4-layer DAG cannot hold a 6-edge walk")
		}
	}
}

// Semi-join prune fixpoint on a workload it fully decides, ~7200 rows
// per constraint table.
func BenchmarkPrune_Path6Layers4_W300(b *testing.B) { benchPrunePath6(b, 300) }

// The same shape at double the width: ~14400 rows per table.
func BenchmarkPrune_Path6Layers4_W600(b *testing.B) { benchPrunePath6(b, 600) }

// A trickle shape with survivors: the chain fits the DAG, so the prune
// trims boundary layers and the join DP runs over what remains.  The
// deeper the prune cuts, the less the DP enumerates.
func BenchmarkPrune_Path8Layers12_Trickle(b *testing.B) {
	pattern := pathStructure(8)
	bs := layeredStructure(12, 220, 7, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.ReleaseSession(bs)
		v, err := count.Homomorphisms(pattern, bs)
		if err != nil {
			b.Fatal(err)
		}
		if v.Sign() == 0 {
			b.Fatal("a 12-layer DAG holds 8-edge walks")
		}
	}
}

// The benchmark's append-mix cycle in process: three fresh edges into
// G(200, 0.06), then the maintained triangle and 4-cycle counts — two
// delta advances (seven delta terms) per iteration.  The graph grows by
// three edges an iteration, so compare runs at the same -benchtime.
func BenchmarkAdvance_TriC4_N200(b *testing.B) {
	const n = 200
	sig := workload.EdgeSig()
	g := workload.RandomStructure(sig, n, 0.06, 1)
	defer engine.ReleaseSession(g)
	var counters []*epcq.Counter
	for _, src := range []string{
		"tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)",
	} {
		c, err := epcq.NewCounter(epcq.MustParseQuery(src), sig, epcq.EngineFPT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.CountCtx(context.Background(), g); err != nil { // cold counts outside the timing
			b.Fatal(err)
		}
		counters = append(counters, c)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for added := 0; added < 3; {
			u, v := rng.Intn(n), rng.Intn(n)
			if g.HasTuple("E", []int{u, v}) {
				continue
			}
			if err := g.AddTuple("E", u, v); err != nil {
				b.Fatal(err)
			}
			added++
		}
		for _, c := range counters {
			if _, err := c.CountCtx(context.Background(), g); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The same cycle at a pinned density: every advanceRound batches the
// graph starts over from a fresh G(200, p) (rebuilt and counted cold off
// the clock), so ns/op — one batch of three edges and the two maintained
// reads — does not depend on -benchtime.
func BenchmarkAdvance_TriC4_N200_P06(b *testing.B) { benchAdvancePinned(b, 0.06) }

// At p = 0.35 a delta term's supports cover most of the universe.
func BenchmarkAdvance_TriC4_N200_P35(b *testing.B) { benchAdvancePinned(b, 0.35) }

const advanceRound = 32

func benchAdvancePinned(b *testing.B, p float64) {
	const n = 200
	sig := workload.EdgeSig()
	base := workload.RandomStructure(sig, n, p, 1)
	var counters []*epcq.Counter
	for _, src := range []string{
		"tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)",
	} {
		c, err := epcq.NewCounter(epcq.MustParseQuery(src), sig, epcq.EngineFPT)
		if err != nil {
			b.Fatal(err)
		}
		counters = append(counters, c)
	}
	var g *structure.Structure
	var batches [advanceRound][3][2]int
	fresh := func() {
		if g != nil {
			engine.ReleaseSession(g)
		}
		g = base.Clone()
		for _, c := range counters {
			if _, err := c.CountCtx(context.Background(), g); err != nil {
				b.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(2))
		seen := map[[2]int]bool{}
		for k := range batches {
			for e := range batches[k] {
				for {
					u, v := rng.Intn(n), rng.Intn(n)
					if !g.HasTuple("E", []int{u, v}) && !seen[[2]int{u, v}] {
						seen[[2]int{u, v}] = true
						batches[k][e] = [2]int{u, v}
						break
					}
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%advanceRound == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		for _, e := range batches[i%advanceRound] {
			if err := g.AddTuple("E", e[0], e[1]); err != nil {
				b.Fatal(err)
			}
		}
		for _, c := range counters {
			if _, err := c.CountCtx(context.Background(), g); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	engine.ReleaseSession(g)
}
