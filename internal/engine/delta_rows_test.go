package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/structure"
	"repro/internal/workload"
)

// Delta terms over plain binary atoms read the store's live rows: the
// maintained count must equal a full recount at every version, on both
// sides of every boundary the rows have — universes of 63, 64 and 65
// elements (none, one word, two words a row), 130 and 200; edge counts
// that cross structure.BitRowsFit mid-stream, so the relation is laid out
// between two reads; elements added across a multiple of 64, so the
// stride changes under a maintained count; reads that skip versions; and
// atoms the rows do not serve (a repeated variable, a relation too sparse
// to fit) beside ones they do.  The store's own invariants (Audit) hold
// after every batch.  Then the work: the executor scans and binds inside
// a term's supports, not across the universe.
func TestDeltaRowsDifferential(t *testing.T) {
	restore := ForceDeltaGate(1<<30, 100)
	defer restore()
	sig := structure.MustSignature(structure.RelSym{Name: "E", Arity: 2}, structure.RelSym{Name: "F", Arity: 2})
	queries := []string{
		"q(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"q(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)",
		"q(a,b,c,d,e) := E(a,b) & E(b,c) & E(c,d) & E(d,e)",
		"q(x,y) := E(x,x) & E(x,y)",
		"q(w,x,y,z) := E(x,w) & E(x,y) & E(z,y) & E(z,w)", // every other atom reversed
		"q(x,y,z) := E(x,y) & F(y,z) & E(z,x)",            // F never fits
	}
	plans := make([]Plan, len(queries))
	for i, src := range queries {
		pl, err := Compile(compilePP(t, sig, src), FPT)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = pl
	}
	onRows := 0
	for _, n := range []int{63, 64, 65, 130, 200} {
		fit := max(n, 64) * ((max(n, 64) + 63) / 64) / 5 // E-tuples from which E keeps rows
		for _, dense := range []bool{false, true} {
			start, batch := fit*6/10, max(fit/6, 2)
			if dense {
				start, batch = n*n/7, 4
			}
			for qi, pl := range plans {
				name := fmt.Sprintf("|B| = %d, dense = %v, %s", n, dense, queries[qi])
				rng := rand.New(rand.NewSource(int64(n*10 + qi)))
				b := structure.New(sig)
				for i := 0; i < n; i++ {
					b.EnsureElem(fmt.Sprintf("v%d", i))
				}
				add := func(rel string) {
					for {
						u, v := rng.Intn(b.Size()), rng.Intn(b.Size())
						if !b.HasTuple(rel, []int{u, v}) {
							if err := b.AddTuple(rel, u, v); err != nil {
								t.Fatal(err)
							}
							return
						}
					}
				}
				for b.Rel("E").Len() < start {
					add("E")
				}
				for b.Rel("F").Len() < n/10 {
					add("F")
				}
				fp := fmt.Sprintf("delta-rows-%d-%v-%d", n, dense, qi)
				if _, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0); err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 12; step++ {
					for k := 0; k < batch; k++ {
						add("E")
					}
					if step%4 == 1 {
						add("F")
					}
					if step%4 == 3 { // the universe grows, with an edge through the new element
						u := b.EnsureElem(fmt.Sprintf("grown%d", step))
						if err := b.AddTuple("E", u, rng.Intn(u)); err != nil {
							t.Fatal(err)
						}
					}
					if err := b.Audit(); err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
					if step%4 == 2 {
						continue // no read at this version: the next advance spans two batches
					}
					binds := RowBinds()
					got, _, err := CountKeyedCtx(context.Background(), pl, fp, SessionFor(b), 0)
					if err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
					if RowBinds() > binds {
						onRows++
					}
					want, err := pl.CountIn(context.Background(), NewSession(b))
					if err != nil {
						t.Fatal(err)
					}
					if got.Cmp(want) != 0 {
						t.Fatalf("%s step %d: delta-maintained %v != full recount %v", name, step, got, want)
					}
				}
				ReleaseSession(b)
			}
		}
	}
	if onRows < 100 {
		t.Fatalf("only %d delta reads bound values from live rows", onRows)
	}

	var graphPlans []Plan
	for _, src := range queries[:2] {
		pl, err := Compile(compilePP(t, workload.EdgeSig(), src), FPT)
		if err != nil {
			t.Fatal(err)
		}
		graphPlans = append(graphPlans, pl)
	}
	// Work: a term binds what its supports allow, not what a Δ edge's
	// endpoint offers.  On G(1600, 6/1600) with four hubs of in-degree
	// 1200, each batch adds edges out of a hub.  A 4-cycle term pinned to
	// such an edge (a, b) binds d from the hub's row E(·, a), 1200 values,
	// cut to the d that some c ∈ E(b, ·) reaches — a few dozen — and a
	// scan of the universe alone would bind 1600.  A read, two terms of
	// which start from a hub's row, must bind fewer values than one hub
	// row per Δ edge.
	const n, deg, batch, hubs, hubIn = 1600, 6, 3, 4, 1200
	b := workload.GraphStructure(workload.ER(n, deg/float64(n), 7))
	defer ReleaseSession(b)
	rng := rand.New(rand.NewSource(8))
	edge := func(u, v int) bool {
		if b.HasTuple("E", []int{u, v}) {
			return false
		}
		return b.AddTuple("E", u, v) == nil
	}
	for h := 0; h < hubs; h++ {
		for k := 0; k < hubIn; {
			if edge(rng.Intn(n), h) {
				k++
			}
		}
	}
	var binds int64
	for k := 0; k < 10; k++ {
		for i, pl := range graphPlans {
			if _, _, err := CountKeyedCtx(context.Background(), pl, fmt.Sprintf("delta-rows-work-%d", i), SessionFor(b), 0); err != nil {
				t.Fatal(err)
			}
		}
		if k == 0 {
			binds = RowBinds() // the cold counts are not the delta's work
		}
		for e := 0; e < batch; {
			if edge(rng.Intn(hubs), rng.Intn(n)) {
				e++
			}
		}
	}
	perRead := (RowBinds() - binds) / 9
	t.Logf("values bound from rows per advancing read at |B| = %d: %d", n, perRead)
	if bound := int64(batch * hubIn); perRead == 0 || perRead > bound {
		t.Fatalf("an advancing read bound %d values from rows, want 1..%d", perRead, bound)
	}
}
