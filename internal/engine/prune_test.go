package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/pp"
	"repro/internal/tw"
	"repro/internal/workload"
)

// chainComponent is a path-query shape for exercising semiJoinPrune
// directly: nvars active variables joined by nvars-1 binary constraints
// E(x_i, x_{i+1}), placed on a path decomposition so joinCount can run
// over whatever tables the caller supplies.
func chainComponent(nvars int) *planComponent {
	pc := &planComponent{nActive: nvars}
	cg := graph.New(nvars)
	for i := 0; i < nvars-1; i++ {
		pc.constraints = append(pc.constraints, planConstraint{scope: []int{i, i + 1}})
		cg.AddEdge(i, i+1)
	}
	_, dec, _ := tw.Treewidth(cg)
	dec.Reduce()
	if err := new(planCompiler).place(pc, dec); err != nil {
		panic(err)
	}
	return pc
}

// layeredEdgeTable fills one table per chain constraint with the edges
// of a dense layered DAG (width vertices per layer, deg out-edges into
// the next layer).  All tables share the edge set but are distinct
// copies, as session materialization would produce.
func layeredEdgeTables(k, layers, width, deg int, seed int64) ([]*Table, int) {
	dom := layers * width
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	seen := make(map[[2]int]bool)
	for l := 0; l < layers-1; l++ {
		for j := 0; j < width; j++ {
			u := l*width + j
			for d := 0; d < deg; d++ {
				e := [2]int{u, (l+1)*width + rng.Intn(width)}
				if !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
		}
	}
	tables := make([]*Table, k)
	for ci := range tables {
		t := newTable(2, dom)
		for _, e := range edges {
			t.appendRow(e[:])
		}
		tables[ci] = t
	}
	return tables, dom
}

// pruneShapes are layered-DAG chain inputs on either side of every
// outcome the pass has: emptied in the first rounds, emptied exactly at
// the round cap, trimmed with survivors, and a cascade deeper than
// pruneMaxRounds, which the pass leaves unfinished for the DP.
var pruneShapes = []struct {
	nvars, layers, width, deg int
	seed                      int64
}{
	{5, 3, 20, 4, 1},   // shallow: prune empties (no 4-edge walk in 3 layers)
	{9, 12, 24, 4, 2},  // deep: boundary trickle, survivors remain
	{4, 6, 16, 3, 3},   // short chain on a mid-depth target
	{7, 4, 40, 6, 4},   // empties at the round cap
	{16, 20, 16, 3, 5}, // cascade deeper than the round cap
}

// checkPrunePreservesCount is the pass's whole contract: joinCount over
// the pruned tables equals joinCount over the unpruned ones, empty is
// reported only when that count is 0, no table grows, and the input
// tables are left as they were.
func checkPrunePreservesCount(t *testing.T, label string, pc *planComponent, tables []*Table, dom int) {
	t.Helper()
	lens := make([]int, len(tables))
	for ci, tb := range tables {
		lens[ci] = tb.Len()
	}
	want, _ := joinCount(pc, newExecPlan(pc, tables, nil), dom, nil)
	pruned, empty := semiJoinPrune(pc, tables, dom)
	if empty {
		if want.Sign() != 0 {
			t.Fatalf("%s: pruned to empty but the unpruned count is %v", label, want)
		}
	} else {
		got, _ := joinCount(pc, newExecPlan(pc, pruned, nil), dom, nil)
		if want.Cmp(got) != 0 {
			t.Fatalf("%s: pruned count %v != unpruned %v", label, got, want)
		}
		for ci, pt := range pruned {
			if pt.Len() > lens[ci] {
				t.Fatalf("%s: pruning grew table %d (%d > %d)", label, ci, pt.Len(), lens[ci])
			}
		}
	}
	for ci, tb := range tables {
		if tb.Len() != lens[ci] {
			t.Fatalf("%s: input table %d mutated by pruning", label, ci)
		}
	}
}

// TestPruneRowsMatchTuples runs the prune on both layouts of the same
// tables: random components — a random ∃-component's nested run and the
// liberal components of a random ep-query's disjuncts — and a component
// with reversed atoms, over a structure whose binary tables fit rows, and
// over that structure padded with isolated elements until nothing does
// (PadIsolated keeps every value).  Table by table the rows prune and the
// tuple prune agree on empty and on the rows that survive.  The last
// rounds draw structures grown from 64 elements, whose store rows are
// wider apart than ⌈|B|/64⌉ words.
func TestPruneRowsMatchTuples(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 30
	}
	sig := predSig()
	rev, err := Compile(compilePP(t, sig, "rev(x,y,z) := E(y,x) & E(z,y) & E(z,z)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	onRows := 0
	for seed := 0; seed < rounds+rounds/4; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c, _, _, _ := existsConstraint(t, randomExistsComponent(rng))
		comps := append([]*planComponent{c.pred}, rev.(*fptPlan).comps...)
		q := workload.RandomEPQuery(sig, 2, 4, 2, 3+rng.Intn(3), int64(seed))
		for _, d := range q.Disjuncts() {
			p, err := pp.FromDisjunct(sig, q.Lib, d)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := Compile(p, FPT)
			if err != nil {
				t.Fatal(err)
			}
			for _, pc := range pl.(*fptPlan).comps {
				if pc.nActive > 0 {
					comps = append(comps, pc)
				}
			}
		}
		n, build := []int{64, 65, 128, 200}[seed%4], RowsStructure
		if seed >= rounds {
			n, build = 130, GrownRowsStructure
		}
		b := build(n, (2+rng.Intn(6))*n, rng.Intn(2*n), int64(seed))
		pad := PadIsolated(b)
		onB, onPad := NewSession(b), NewSession(pad)
		tablesIn := func(s *Session, pc *planComponent) []*Table {
			tables := make([]*Table, len(pc.constraints))
			for ci := range pc.constraints {
				tables[ci] = s.tableFor(&pc.constraints[ci], nil)
			}
			return tables
		}
		for i, pc := range comps {
			rows, rowsEmpty := semiJoinPrune(pc, tablesIn(onB, pc), n)
			tuples, tuplesEmpty := semiJoinPrune(pc, tablesIn(onPad, pc), pad.Size())
			if rowsEmpty != tuplesEmpty {
				t.Fatalf("seed %d component %d: empty on rows %v, on tuples %v", seed, i, rowsEmpty, tuplesEmpty)
			}
			if rowsEmpty {
				continue
			}
			for ci := range rows {
				if tuples[ci].rows(0) != nil {
					t.Fatalf("seed %d component %d table %d: laid out as rows on the padded structure", seed, i, ci)
				}
				if rows[ci].rows(0) != nil {
					onRows++
				}
				if got, want := predRows(rows[ci], nil), predRows(tuples[ci], nil); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d n %d component %d table %d scope %v:\n rows   %v\n tuples %v", seed, n, i, ci, pc.constraints[ci].scope, got, want)
				}
			}
		}
	}
	if onRows < rounds {
		t.Fatalf("%d tables pruned on rows over %d rounds: the rows side was not exercised", onRows, rounds)
	}
}

// pruneShapes must exercise both outcomes; pin them so a workload change
// cannot silently turn the count-preservation check one-sided.
func TestSemiJoinPruneShapesCoverBothOutcomes(t *testing.T) {
	pcE := chainComponent(5)
	tE, domE := layeredEdgeTables(4, 3, 20, 4, 1)
	if _, empty := semiJoinPrune(pcE, tE, domE); !empty {
		t.Error("5-var chain on a 3-layer DAG should prune to empty")
	}
	pcS := chainComponent(9)
	tS, domS := layeredEdgeTables(8, 12, 24, 4, 2)
	out, empty := semiJoinPrune(pcS, tS, domS)
	if empty {
		t.Fatal("9-var chain on a 12-layer DAG has walks; must not empty")
	}
	if out[0].n >= tS[0].n {
		t.Error("deep-DAG shape should still trim boundary rows")
	}
}
