package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// The executor's work, pinned: for a fixed corpus each count's value and
// the number of values it bound from rows (engine.RowBinds), as recorded
// on the closure-based executor that the flat step program replaced.  A
// bind order, a tail mode, a cut or a delta mask that changes shows here
// even where the counts agree.  The corpus is the repository benchmark's
// five cold-exec queries and three more shapes (goldenMore) on its N120
// structure, TestRowsDifferential's queries on four structures of its grid
// (no rows, sparse, a grown stride, dense), and the delta reads of a
// triangle and a 4-cycle under appends.

// goldenColdExec are the cold-exec workload's query classes.
var goldenColdExec = []string{
	"tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
	"c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)",
	"fp3(a,b,c,d) := E(a,b) & E(b,c) & E(c,d)",
	"p(s,t) := exists a. exists b. E(s,a) & E(a,b) & E(b,t)",
	"u(x,y) := E(x,y) | (exists z. E(x,z) & E(z,y)) | E(y,x) | (exists w. E(y,w) & E(w,x))",
}

// goldenMore are shapes that build op kinds and tail modes the other
// queries do not.
var goldenMore = []string{
	"c4p(a,b,c,d,e) := E(a,b) & E(b,c) & E(c,d) & E(d,a) & E(d,e)",
	"lad(a,b,c,d,e,f) := E(a,b) & E(b,c) & E(d,e) & E(e,f) & E(a,d) & E(b,e) & E(c,f)",
	"star(a,b,c) := exists u, v, w, z. E(v,u) & E(w,v) & E(z,v) & E(a,u) & E(z,b) & E(w,c)",
}

// goldenRun is one line of the corpus: a count and what it bound from
// rows.
type goldenRun struct {
	name  string
	count string
	binds int64
}

func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	var runs []goldenRun
	cold := func(name string, c *core.Counter, b *structure.Structure) {
		engine.ReleaseSession(b)
		before := engine.RowBinds()
		v, err := c.Count(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		engine.ReleaseSession(b)
		runs = append(runs, goldenRun{name, v.String(), engine.RowBinds() - before})
	}
	n120 := workload.RandomStructure(workload.EdgeSig(), 120, 8.0/120, 20160626)
	for i, src := range goldenColdExec {
		c, err := core.NewCounter(parser.MustQuery(src), workload.EdgeSig(), count.EngineFPT)
		if err != nil {
			t.Fatal(err)
		}
		cold(fmt.Sprintf("cold-exec/%d", i), c, n120)
	}
	// Shapes the two corpora below leave out: a node that adds into its
	// output by index while it gathers a child's weights by index (a
	// 4-cycle with a pendant edge, a ladder) — checked against union
	// enumeration too, as no other test reaches it — and a predicate whose
	// root bag holds interface positions no constraint covers there, bound
	// over the domain.
	for i, src := range goldenMore {
		c, err := core.NewCounter(parser.MustQuery(src), workload.EdgeSig(), count.EngineFPT)
		if err != nil {
			t.Fatal(err)
		}
		cold(fmt.Sprintf("more/%d", i), c, n120)
		if i == len(goldenMore)-1 {
			continue
		}
		comp, err := eptrans.Compile(c.Query(), c.Signature())
		if err != nil {
			t.Fatal(err)
		}
		if want, err := count.EPUnion(comp.Disjuncts, n120); err != nil || runs[len(runs)-1].count != want.String() {
			t.Fatalf("%s: %s, union enumeration %v (%v)", src, runs[len(runs)-1].count, want, err)
		}
	}
	grid := []struct {
		n, nE int
		grown bool
	}{{63, 630, false}, {128, 76, false}, {130, 1300, true}, {200, 2000, false}}
	for qi, rq := range rowsQueries() {
		c, err := core.NewCounter(rq.q, engine.PredSig(), count.EngineFPT)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range grid {
			build := engine.RowsStructure
			if g.grown {
				build = engine.GrownRowsStructure
			}
			cold(fmt.Sprintf("rows/%d/%d", qi, g.n), c, build(g.n, g.nE, 3*g.n, int64(g.n)))
		}
	}
	restore := engine.ForceDeltaGate(1<<30, 100)
	defer restore()
	for qi, src := range goldenColdExec[:2] {
		q := parser.MustQuery(src)
		p, err := pp.FromDisjunct(workload.EdgeSig(), q.Lib, q.Disjuncts()[0])
		if err != nil {
			t.Fatal(err)
		}
		pl, err := engine.Compile(p, engine.FPT)
		if err != nil {
			t.Fatal(err)
		}
		b := workload.RandomStructure(workload.EdgeSig(), 130, 0.3, 5)
		rng := rand.New(rand.NewSource(int64(qi)))
		fp := fmt.Sprintf("golden-delta-%d", qi)
		for step := 0; step < 6; step++ {
			if step > 0 {
				for k := 0; k < 4; {
					if u, v := rng.Intn(130), rng.Intn(130); !b.HasTuple("E", []int{u, v}) {
						if err := b.AddTuple("E", u, v); err != nil {
							t.Fatal(err)
						}
						k++
					}
				}
			}
			before := engine.RowBinds()
			v, _, err := engine.CountKeyedCtx(context.Background(), pl, fp, engine.SessionFor(b), 0)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, goldenRun{fmt.Sprintf("delta/%d/%d", qi, step), v.String(), engine.RowBinds() - before})
		}
		engine.ReleaseSession(b)
	}
	return runs
}

func TestExecutorGolden(t *testing.T) {
	runs := goldenRuns(t)
	if len(runs) != len(goldenWant) {
		for _, r := range runs {
			t.Logf("{%q, %q, %d},", r.name, r.count, r.binds)
		}
		t.Fatalf("%d runs, %d recorded", len(runs), len(goldenWant))
	}
	for i, r := range runs {
		if r != goldenWant[i] {
			t.Errorf("%s: count %s, %d values bound from rows; recorded %s, %d", r.name, r.count, r.binds, goldenWant[i].count, goldenWant[i].binds)
		}
	}
}

// Every op kind and every tail mode a node program can be built with is
// built by the golden corpus — cold counts on both sides of the rows'
// fit rule, predicate materializations and delta advances — each tail
// mode that can read a child group by index (count, add) with and without
// one.
func TestOpKindsCovered(t *testing.T) {
	kinds, tails := engine.CountBuilds(func() { goldenRuns(t) })
	for i, n := range kinds {
		t.Logf("%-10s %d", engine.OpKinds[i], n)
		if n == 0 {
			t.Errorf("no %s op was built", engine.OpKinds[i])
		}
	}
	for i, n := range tails {
		t.Logf("tail %-5s %d, gathering %d", engine.TailModes[i], n[0], n[1])
		if n[0] == 0 {
			t.Errorf("no %s tail was built", engine.TailModes[i])
		}
		if gathers := engine.TailModes[i] == "count" || engine.TailModes[i] == "add"; gathers && n[1] == 0 {
			t.Errorf("no %s tail gathering a child group was built", engine.TailModes[i])
		}
	}
}

var goldenWant = []goldenRun{
	{"cold-exec/0", "478", 2088},
	{"cold-exec/1", "5023", 4176},
	{"cold-exec/2", "68130", 720},
	{"cold-exec/3", "13849", 4176},
	{"cold-exec/4", "10328", 5856},
	{"more/0", "47475", 4416},
	{"more/1", "165758", 7368},
	{"more/2", "1718141", 1734264},
	{"rows/0/63", "995", 0},
	{"rows/0/128", "0", 0},
	{"rows/0/130", "2309", 2717},
	{"rows/0/200", "1032", 4200},
	{"rows/1/63", "10067", 0},
	{"rows/1/128", "0", 0},
	{"rows/1/130", "31066", 5434},
	{"rows/1/200", "9902", 8400},
	{"rows/2/63", "62189", 0},
	{"rows/2/128", "36", 80},
	{"rows/2/130", "217285", 776},
	{"rows/2/200", "197216", 1200},
	{"rows/3/63", "26", 0},
	{"rows/3/128", "0", 0},
	{"rows/3/130", "34", 8},
	{"rows/3/200", "9", 6},
	{"rows/4/63", "8", 0},
	{"rows/4/128", "0", 0},
	{"rows/4/130", "3", 0},
	{"rows/4/200", "3", 0},
	{"rows/5/63", "3966", 0},
	{"rows/5/128", "36", 93},
	{"rows/5/130", "15314", 5447},
	{"rows/5/200", "38757", 8400},
	{"rows/6/63", "3969", 0},
	{"rows/6/128", "126", 618},
	{"rows/6/130", "16609", 8187},
	{"rows/6/200", "40000", 12600},
	{"rows/7/63", "63", 0},
	{"rows/7/128", "0", 0},
	{"rows/7/130", "112", 1645},
	{"rows/7/200", "196", 2689},
	{"rows/8/63", "2855", 0},
	{"rows/8/128", "0", 0},
	{"rows/8/130", "6598", 5065},
	{"rows/8/200", "7704", 7206},
	{"rows/9/63", "1114", 0},
	{"rows/9/128", "0", 0},
	{"rows/9/130", "2095", 268},
	{"rows/9/200", "676", 124},
	{"rows/10/63", "3137", 0},
	{"rows/10/128", "46", 88},
	{"rows/10/130", "8342", 2717},
	{"rows/10/200", "15695", 4200},
	{"rows/11/63", "37", 0},
	{"rows/11/128", "1", 70},
	{"rows/11/130", "42", 0},
	{"rows/11/200", "32", 0},
	{"rows/12/63", "3846", 0},
	{"rows/12/128", "242", 204},
	{"rows/12/130", "11638", 7242},
	{"rows/12/200", "26526", 11200},
	{"rows/13/63", "1209", 0},
	{"rows/13/128", "1", 47},
	{"rows/13/130", "2460", 2717},
	{"rows/13/200", "1135", 4200},
	{"rows/14/63", "145", 0},
	{"rows/14/128", "3", 27},
	{"rows/14/130", "193", 2593},
	{"rows/14/200", "239", 4056},
	{"rows/15/63", "0", 0},
	{"rows/15/128", "0", 0},
	{"rows/15/130", "0", 0},
	{"rows/15/200", "0", 0},
	{"rows/16/63", "0", 0},
	{"rows/16/128", "0", 0},
	{"rows/16/130", "0", 0},
	{"rows/16/200", "0", 0},
	{"rows/17/63", "36", 0},
	{"rows/17/128", "1", 4},
	{"rows/17/130", "90", 313},
	{"rows/17/200", "107", 307},
	{"rows/18/63", "0", 0},
	{"rows/18/128", "0", 0},
	{"rows/18/130", "0", 8},
	{"rows/18/200", "0", 6},
	{"rows/19/63", "98", 0},
	{"rows/19/128", "0", 0},
	{"rows/19/130", "98", 2632},
	{"rows/19/200", "43", 3925},
	{"rows/20/63", "28", 0},
	{"rows/20/128", "0", 118},
	{"rows/20/130", "36", 262},
	{"rows/20/200", "46", 404},
	{"rows/21/63", "3969", 0},
	{"rows/21/128", "0", 0},
	{"rows/21/130", "16250", 516},
	{"rows/21/200", "39600", 816},
	{"rows/22/63", "0", 0},
	{"rows/22/128", "0", 1},
	{"rows/22/130", "0", 2},
	{"rows/22/200", "0", 4},
	{"rows/23/63", "0", 0},
	{"rows/23/128", "0", 0},
	{"rows/23/130", "0", 0},
	{"rows/23/200", "0", 0},
	{"rows/24/63", "0", 0},
	{"rows/24/128", "0", 0},
	{"rows/24/130", "0", 0},
	{"rows/24/200", "0", 0},
	{"rows/25/63", "168", 0},
	{"rows/25/128", "2", 15},
	{"rows/25/130", "69", 2960},
	{"rows/25/200", "203", 4688},
	{"delta/0/0", "56867", 10146},
	{"delta/0/1", "57015", 17},
	{"delta/0/2", "57153", 12},
	{"delta/0/3", "57300", 12},
	{"delta/0/4", "57450", 12},
	{"delta/0/5", "57576", 12},
	{"delta/1/0", "2204902", 20292},
	{"delta/1/1", "2210654", 3048},
	{"delta/1/2", "2219274", 3525},
	{"delta/1/3", "2226324", 3239},
	{"delta/1/4", "2233672", 3627},
	{"delta/1/5", "2242202", 3564},
}
