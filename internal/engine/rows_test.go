package engine_test

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Both sides of the executor's row layout (Table.rows), reached by input
// alone: the same queries are counted on structures whose binary tables
// fit the layout, on structures that are too small or too sparse for it,
// and on the fitting ones padded with isolated elements until nothing
// fits — and engine.RowBinds says which side each count ran on.

// covered reports whether every disjunct of q constrains every liberal
// variable: only then are q's answers untouched by isolated elements.
func covered(q logic.Query) bool {
	for _, d := range q.Disjuncts() {
		for _, v := range q.Lib {
			seen := false
			for _, a := range d.Atoms {
				for _, u := range a.Args {
					seen = seen || u == v
				}
			}
			if !seen {
				return false
			}
		}
	}
	return true
}

type rowsQuery struct {
	q logic.Query
	// tail: on a dense structure of at least 64 elements some run of the
	// count binds its last variable from rows, whatever the draw.
	tail bool
	// free: no quantifier, so no run is an existence run and nothing but
	// Table.rows can put the count on the rows side.
	free bool
}

func rowsQueries() []rowsQuery {
	qs := []rowsQuery{
		{q: parser.MustQuery("tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)"), tail: true, free: true},
		{q: parser.MustQuery("c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)"), tail: true, free: true},
		{q: parser.MustQuery("fp3(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)"), free: true},
		{q: parser.MustQuery("conv(x,y) := E(x,y) & E(y,x) & E(x,x)"), free: true},
		{q: parser.MustQuery("mix(x,y,z) := R(x,y,z) & E(z,x) & E(y,z)"), free: true},
		{q: parser.MustQuery("p3(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)"), tail: true},
		{q: parser.MustQuery("p4(s,t) := exists a. exists b. exists c. E(a,s) & E(a,b) & E(c,b) & E(c,t)"), tail: true},
		{q: parser.MustQuery("loop3(s) := exists a. exists b. E(s,a) & E(a,b) & E(b,s)"), tail: true},
		{q: parser.MustQuery("ear(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,s) & E(a,t)"), tail: true},
		{q: parser.MustQuery("star(x,y) := exists c. E(c,x) & E(c,y) & E(c,c)")},
		{q: parser.MustQuery("star3(x,y) := exists c. exists d. E(c,x) & E(y,c) & E(c,d)"), tail: true},
		{q: parser.MustQuery("tern(x,y) := exists z. R(x,y,z) & E(z,x)")},
		{q: parser.MustQuery("u(x,y) := E(x,y) | (exists z. E(x,z) & E(z,y)) | E(y,x) | (exists w. E(y,w) & E(w,x))"), tail: true},
		{q: parser.MustQuery("rev(x,y,z) := E(y,x) & E(z,y) & E(z,x)"), tail: true, free: true},
	}
	for seed := int64(0); seed < 12; seed++ {
		qs = append(qs, rowsQuery{q: workload.RandomEPQuery(engine.PredSig(), 1+int(seed%3), 4+int(seed%2), 2, 3+int(seed%3), seed)})
	}
	return qs
}

func TestRowsDifferential(t *testing.T) {
	queries := rowsQueries()
	if testing.Short() {
		queries = queries[:17]
	}
	counters := make([]*core.Counter, len(queries))
	disjuncts := make([][]pp.PP, len(queries))
	for i, rq := range queries {
		c, err := core.NewCounter(rq.q, engine.PredSig(), count.EngineFPT)
		if err != nil {
			t.Fatalf("%v: %v", rq.q, err)
		}
		comp, err := eptrans.Compile(rq.q, engine.PredSig())
		if err != nil {
			t.Fatalf("%v: %v", rq.q, err)
		}
		counters[i], disjuncts[i] = c, comp.Disjuncts
	}
	// cold counts q on b with no session to start from and reports what
	// the count bound from rows.
	cold := func(c *core.Counter, b *structure.Structure) (*big.Int, int64) {
		t.Helper()
		engine.ReleaseSession(b)
		before := engine.RowBinds()
		v, err := c.Count(b)
		if err != nil {
			t.Fatal(err)
		}
		engine.ReleaseSession(b)
		return v, engine.RowBinds() - before
	}
	for _, n := range []int{63, 64, 65, 127, 128, 129, 130, 200} {
		fits := n * ((n + 63) / 64) / 5 // E-tuples at which the layout starts to fit
		build := engine.RowsStructure
		if n == 130 { // grown from 64 elements: the store's stride (4) is wider than ⌈130/64⌉ (3)
			build = engine.GrownRowsStructure
		}
		for _, dense := range []bool{false, true} {
			nE := fits * 6 / 10
			if dense {
				nE = 10 * n
			}
			b := build(n, nE, 3*n, int64(n))
			pad := engine.PadIsolated(b)
			for i, rq := range queries {
				name := fmt.Sprintf("|B| = %d, dense = %v, query %v", n, dense, rq.q)
				got, binds := cold(counters[i], b)
				if want, err := count.EPUnion(disjuncts[i], b); err != nil || got.Cmp(want) != 0 {
					t.Fatalf("%s: FPT %v, union %v (%v)", name, got, want, err)
				}
				// The brute-force semantics where |B|^vars allows.
				if vars := len(logic.AllVars(rq.q.F)); math.Pow(float64(n), float64(vars)) < 3e5 {
					if want, err := count.EPDirect(rq.q, b); err != nil || got.Cmp(want) != 0 {
						t.Fatalf("%s: FPT %v, EPDirect %v (%v)", name, got, want, err)
					}
				}
				switch {
				case n < 64 || (!dense && rq.free):
					if binds != 0 {
						t.Fatalf("%s: %d positions bound from rows where nothing fits them", name, binds)
					}
				case dense && rq.tail:
					if binds == 0 {
						t.Fatalf("%s: nothing was bound from rows", name)
					}
				}
				restore := engine.ForcePackedKeyBudget(0)
				spilled, _ := cold(counters[i], b)
				restore()
				if spilled.Cmp(got) != 0 {
					t.Fatalf("%s: spilled keys %v, packed %v", name, spilled, got)
				}
				if !dense {
					continue
				}
				onPad, binds := cold(counters[i], pad)
				if binds != 0 {
					t.Fatalf("%s: %d positions bound from rows on the padded structure", name, binds)
				}
				if covered(rq.q) && onPad.Cmp(got) != 0 {
					t.Fatalf("%s: %v on the padded structure, %v as built", name, onPad, got)
				}
			}
		}
	}
}

// The ∃-component predicate tables of the repository benchmark's two
// quantified cold-exec classes are born as rows at its |B| = 120, and no
// step of a cold count lays them out as tuples; below rowsMinDom (|B| =
// 63) and on the structure padded until nothing fits rows, the same
// counts build them as tuples.
func TestColdPredicateTablesStayRows(t *testing.T) {
	for _, src := range []string{
		"p(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)",
		"u(x,y) := E(x,y) | (exists z. E(x,z) & E(z,y)) | E(y,x) | (exists w. E(y,w) & E(w,x))",
	} {
		c, err := core.NewCounter(parser.MustQuery(src), workload.EdgeSig(), count.EngineFPT)
		if err != nil {
			t.Fatal(err)
		}
		layouts := func(b *structure.Structure) int64 {
			t.Helper()
			engine.ReleaseSession(b)
			before := engine.TupleLayouts()
			if _, err := c.Count(b); err != nil {
				t.Fatal(err)
			}
			engine.ReleaseSession(b)
			return engine.TupleLayouts() - before
		}
		b := workload.RandomStructure(workload.EdgeSig(), 120, 8.0/120, 20160626)
		if n := layouts(b); n != 0 {
			t.Errorf("%s at |B| = 120: %d tuple forms of predicate tables", src, n)
		}
		if n := layouts(workload.RandomStructure(workload.EdgeSig(), 63, 8.0/63, 20160626)); n == 0 {
			t.Errorf("%s at |B| = 63: no predicate table was laid out as tuples", src)
		}
		if n := layouts(engine.PadIsolated(b)); n == 0 {
			t.Errorf("%s on the padded structure: no predicate table was laid out as tuples", src)
		}
	}
}

// TestRowTailCountsThroughOverflow is TestExecutorCountsThroughOverflow's
// shape on the rows side, on the complete graph with loops over 70
// elements, where every count is 70^(variables):
//   - a triangle with a 10-edge path hanging off two of its corners: the
//     triangle's node binds its third corner last, from rows, with the
//     paths' 70^10 extensions already in the running weight, so the
//     weight × popcount product leaves int64;
//   - a 4-cycle with a 10-edge path hanging off corner 0: the node of
//     corners 0, 1, 3 binds corner 3 last and adds 70^10 per value into its
//     accumulator on (1, 3) by index (tailAdd), whose sums, 70^11, leave
//     int64, and the root node gathers them by index at its tail.
func TestRowTailCountsThroughOverflow(t *testing.T) {
	const n, tail = 70, 10
	b := structure.New(workload.EdgeSig())
	for i := 0; i < n; i++ {
		b.EnsureElem(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			_ = b.AddTuple("E", i, j)
		}
	}
	for _, sh := range []struct {
		cycle   int   // corners 0..cycle-1, joined by E in a cycle
		corners []int // the corners a path hangs off
	}{{3, []int{0, 1}}, {4, []int{0}}} {
		a := structure.New(workload.EdgeSig())
		all := make([]int, sh.cycle+len(sh.corners)*tail)
		for i := range all {
			all[i] = a.EnsureElem(fmt.Sprintf("x%d", i))
		}
		for i := 0; i < sh.cycle; i++ {
			_ = a.AddTuple("E", i, (i+1)%sh.cycle)
		}
		for k, corner := range sh.corners {
			prev := corner
			for i := 0; i < tail; i++ {
				next := sh.cycle + k*tail + i
				_ = a.AddTuple("E", prev, next)
				prev = next
			}
		}
		p, err := pp.New(structure.AtomsOf(a), all)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := engine.Compile(p, engine.FPT)
		if err != nil {
			t.Fatal(err)
		}
		before := engine.RowBinds()
		got, err := pl.CountIn(context.Background(), engine.NewSession(b))
		if err != nil {
			t.Fatal(err)
		}
		if engine.RowBinds() == before {
			t.Fatalf("%d-cycle: nothing was bound from rows", sh.cycle)
		}
		if want := new(big.Int).Exp(big.NewInt(n), big.NewInt(int64(len(all))), nil); got.Cmp(want) != 0 {
			t.Fatalf("%d-cycle: got %v, want %v", sh.cycle, got, want)
		}
	}
}

// TestRowTailAddGathersThroughOverflow reaches the tail that adds into a
// flat accumulator by index while it reads a child's flat weights by index
// (tailAdd with a gather) with weights past int64, on the complete graph
// with loops over 70 elements, where every count is 70^(variables): a
// 4-cycle with a pendant edge and a ladder, with 10-edge paths hanging off
// corners.  Their 70^10 extensions leave int64 at each place the gather
// can: in the gathered child's entry (c4p off corner 0, the ladder off
// corner 0), in the entry's product with the running weight (c4p off
// corner 1), and in the running weight itself (c4p off corners 1 and 2).
func TestRowTailAddGathersThroughOverflow(t *testing.T) {
	const n, tail = 70, 10
	b := structure.New(workload.EdgeSig())
	for i := 0; i < n; i++ {
		b.EnsureElem(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			_ = b.AddTuple("E", i, j)
		}
	}
	c4p := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}}
	lad := [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4}, {2, 5}}
	for _, sh := range []struct {
		name    string
		edges   [][2]int // over corners 0..k-1
		corners []int    // the corners a path hangs off
	}{
		{"c4p", c4p, []int{0}},
		{"c4p", c4p, []int{1}},
		{"c4p", c4p, []int{1, 2}},
		{"lad", lad, []int{0}},
	} {
		k := 0
		for _, e := range sh.edges {
			k = max(k, e[0]+1, e[1]+1)
		}
		a := structure.New(workload.EdgeSig())
		all := make([]int, k+len(sh.corners)*tail)
		for i := range all {
			all[i] = a.EnsureElem(fmt.Sprintf("x%d", i))
		}
		for _, e := range sh.edges {
			_ = a.AddTuple("E", e[0], e[1])
		}
		for j, corner := range sh.corners {
			prev := corner
			for i := 0; i < tail; i++ {
				next := k + j*tail + i
				_ = a.AddTuple("E", prev, next)
				prev = next
			}
		}
		p, err := pp.New(structure.AtomsOf(a), all)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := engine.Compile(p, engine.FPT)
		if err != nil {
			t.Fatal(err)
		}
		var got *big.Int
		_, tails := engine.CountBuilds(func() {
			got, err = pl.CountIn(context.Background(), engine.NewSession(b))
		})
		if err != nil {
			t.Fatal(err)
		}
		if add := tails[slices.Index(engine.TailModes, "add")]; add[1] == 0 {
			t.Errorf("%s off %v: no add tail gathering a child group was built", sh.name, sh.corners)
		}
		if want := new(big.Int).Exp(big.NewInt(n), big.NewInt(int64(len(all))), nil); got.Cmp(want) != 0 {
			t.Errorf("%s off %v: got %v, want %v", sh.name, sh.corners, got, want)
		}
	}
}
