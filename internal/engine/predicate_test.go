package engine

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/workload"
)

// predSig has a binary and a ternary relation, so the random
// ∃-components below repeat relations, repeat variables inside an atom,
// and mix arities.
func predSig() *structure.Signature {
	return structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "R", Arity: 3},
	)
}

// PredSig, RowsStructure, GrownRowsStructure and PadIsolated are
// exported to the package's external tests (rows_test.go).
func PredSig() *structure.Signature { return predSig() }

// RowsStructure draws a structure over predSig with n elements, nE
// distinct E-tuples (loops included) and nR distinct R-triples: sizes
// picked by the caller to land on one side of the rows' fit rule.
func RowsStructure(n, nE, nR int, seed int64) *structure.Structure {
	return growRows(structure.New(predSig()), rand.New(rand.NewSource(seed)), n, nE, nR)
}

// GrownRowsStructure is RowsStructure grown from 64 elements: half of its
// E-tuples are drawn over the first 64, so that E keeps rows (if it fits
// them there) before the universe grows to n and the rest are drawn.  The
// store's stride at least doubles each time it is outgrown, so from 129
// elements on it is wider than ⌈n/64⌉ words.
func GrownRowsStructure(n, nE, nR int, seed int64) *structure.Structure {
	rng := rand.New(rand.NewSource(seed))
	return growRows(growRows(structure.New(predSig()), rng, 64, nE/2, 0), rng, n, nE, nR)
}

// growRows adds elements to b up to n, then draws tuples over all of them
// until E holds nE and R holds nR.
func growRows(b *structure.Structure, rng *rand.Rand, n, nE, nR int) *structure.Structure {
	for i := b.Size(); i < n; i++ {
		b.EnsureElem(fmt.Sprintf("e%d", i))
	}
	for b.Rel("E").Len() < nE {
		_ = b.AddTuple("E", rng.Intn(n), rng.Intn(n))
	}
	for b.Rel("R").Len() < nR {
		_ = b.AddTuple("R", rng.Intn(n), rng.Intn(n), rng.Intn(n))
	}
	return b
}

// PadIsolated returns b with isolated elements added until no table a
// query can build over b's tuples fits the row layout: a binary table
// has at most |b|² rows, and the universe is grown past
// structure.BitRowsFit for that many (and past the 256 values up to which
// a two-position key set is flat, hence rows in its own right).
func PadIsolated(b *structure.Structure) *structure.Structure {
	n := 257
	for structure.BitRowsFit(2, n, b.Size()*b.Size()) {
		n += 64
	}
	out := structure.New(b.Signature())
	for i := 0; i < n; i++ {
		if i < b.Size() {
			out.EnsureElem(b.ElemName(i))
		} else {
			out.EnsureElem(fmt.Sprintf("pad%d", i))
		}
	}
	for _, r := range b.Signature().Rels() {
		b.ForEachTuple(r.Name, func(t []int) bool {
			_ = out.AddTuple(r.Name, t...)
			return true
		})
	}
	return out
}

// randomExistsComponent draws a connected pp-formula whose liberal
// variables are the interface (1–3 of them) of one ∃-component: a
// quantified part of 1–4 variables joined by a random tree of E atoms,
// plus random extra atoms among them (cycles, loops, R triples), each
// interface variable attached to the quantified part by at least one
// atom, and random atoms lying on the interface alone.
func randomExistsComponent(rng *rand.Rand) pp.PP {
	a := structure.New(predSig())
	k, q := 1+rng.Intn(3), 1+rng.Intn(4)
	for i := 0; i < k; i++ {
		a.EnsureElem(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < q; i++ {
		a.EnsureElem(fmt.Sprintf("z%d", i))
	}
	quant := func() int { return k + rng.Intn(q) }
	any := func() int { return rng.Intn(k + q) }
	edge := func(u, v int) {
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		_ = a.AddTuple("E", u, v)
	}
	for i := 1; i < q; i++ {
		edge(k+i, k+rng.Intn(i))
	}
	for i := 0; i < k; i++ {
		edge(i, quant())
	}
	for n := rng.Intn(4); n > 0; n-- {
		edge(quant(), any()) // may close a cycle, may be a loop
	}
	for n := rng.Intn(3); n > 0; n-- {
		_ = a.AddTuple("R", any(), quant(), any())
	}
	for n := rng.Intn(3); n > 0; n-- {
		edge(rng.Intn(k), rng.Intn(k)) // interface-only
	}
	if rng.Intn(3) == 0 {
		_ = a.AddTuple("R", rng.Intn(k), rng.Intn(k), rng.Intn(k)) // interface-only
	}
	s := make([]int, k)
	for i := range s {
		s[i] = i
	}
	p, err := pp.New(structure.AtomsOf(a), s)
	if err != nil {
		panic(err)
	}
	return p
}

// randomPredStructure draws a structure over predSig with n elements
// (0 and 1 included); either relation may come out empty.
func randomPredStructure(rng *rand.Rand, n int) *structure.Structure {
	b := structure.New(predSig())
	for i := 0; i < n; i++ {
		b.EnsureElem(fmt.Sprintf("e%d", i))
	}
	dE, dR := rng.Float64()*0.7, rng.Float64()*0.3
	if rng.Intn(6) == 0 {
		dE = 0
	}
	if rng.Intn(3) == 0 {
		dR = 0
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if rng.Float64() < dE {
				_ = b.AddTuple("E", u, v)
			}
			for w := 0; w < n; w++ {
				if rng.Float64() < dR {
					_ = b.AddTuple("R", u, v, w)
				}
			}
		}
	}
	return b
}

func solverRows(sub, b *structure.Structure, iface []int) []string {
	var rows []string
	hom.ForEachExtendable(structure.AtomsOf(sub), b, iface, hom.Options{}, func(vals []int) bool {
		rows = append(rows, fmt.Sprint(vals))
		return true
	})
	sort.Strings(rows)
	return rows
}

// predRows lists t's rows that keep accepts (nil: all), read from its
// rows(0) when it is on rows.
func predRows(t *Table, keep func(row []int) bool) []string {
	if bornRows(t) {
		return bitPairs(t.bitRows[0], t.dom, false, keep)
	}
	var rows []string
	row := make([]int, t.width)
	for r := 0; r < t.n; r++ {
		for j := range row {
			row[j] = int(t.flat[r*t.width+j])
		}
		if keep == nil || keep(row) {
			rows = append(rows, fmt.Sprint(row))
		}
	}
	sort.Strings(rows)
	return rows
}

// bornRows reports whether t is a non-empty table on rows.
func bornRows(t *Table) bool { return t.stride != 0 && t.n > 0 }

// bitPairs lists the pairs [u v] of the dom × dom bit matrix m (bit v of
// row u; a table's rows are len(m)/dom words apart), as [v u] if swap,
// that keep accepts (nil: all).
func bitPairs(m []uint64, dom int, swap bool, keep func(row []int) bool) []string {
	var rows []string
	words, stride := (dom+63)/64, len(m)/dom
	for u := 0; u < dom; u++ {
		for v := range bitvec.Each(m[u*stride:][:words]) {
			row := []int{u, v}
			if swap {
				row[0], row[1] = v, u
			}
			if keep == nil || keep(row) {
				rows = append(rows, fmt.Sprint(row))
			}
		}
	}
	sort.Strings(rows)
	return rows
}

// existsConstraint compiles p — one ∃-component on its whole interface
// (randomExistsComponent) — into the predicate constraint the FPT plan
// would hold for it, and returns it with the component as compiled (sub,
// interface-only atoms stripped), the unstripped one (full) and the
// interface's elements in sub.  The constraint is compiled from p's atom
// list; sub is built as a structure (existsSub), and the two must agree.
func existsConstraint(t *testing.T, p pp.PP) (c *planConstraint, sub, full *structure.Structure, iface []int) {
	t.Helper()
	ecs := pp.ShapeOf(p).Exists
	if len(ecs) != 1 || len(ecs[0].Interface) != len(p.S) {
		t.Fatalf("generator produced %d ∃-components, want one on the whole interface", len(ecs))
	}
	sub, old2new := existsSub(p.A.Database(), &ecs[0])
	fullBody, _ := p.A.Induced(ecs[0].Vertices)
	full = fullBody.Database()
	iface = make([]int, len(p.S))
	scope := make([]int, len(p.S))
	for i, v := range p.S {
		iface[i], scope[i] = old2new[v], i
	}
	pcl := compilerFor(p.A)
	defer pcl.release()
	pc := &planComponent{constraints: make([]planConstraint, 1)}
	if err := pcl.predicate(pc, 0, &ecs[0], scope); err != nil {
		t.Fatal(err)
	}
	pcl.finishKeys()
	c = &pc.constraints[0]
	if got := predStructure(p.A.Signature(), c.pred); !sameTuples(got, sub) {
		t.Fatalf("predicate compiled from atoms %v, want component %v", got, sub)
	}
	if got := predIface(c); fmt.Sprint(got) != fmt.Sprint(iface) {
		t.Fatalf("predicate columns are elements %v, want %v", got, iface)
	}
	return c, sub, full, iface
}

// existsSub builds an ∃-component as a structure: a induced on the
// component's vertices, minus the atoms lying entirely on its interface
// — the definition the plan's atom-list compile (planCompiler.predicate)
// is held to.
func existsSub(a *structure.Structure, ec *pp.ExistsComponent) (*structure.Structure, []int) {
	old2new := make([]int, a.Size())
	for i := range old2new {
		old2new[i] = -1
	}
	for _, v := range ec.Vertices {
		old2new[v] = 0
	}
	sub := structure.New(a.Signature())
	for v := range old2new { // index order, as Induced numbers them
		if old2new[v] == 0 {
			old2new[v], _ = sub.AddElem(a.ElemName(v)) // names are distinct in a
		}
	}
	onIface := make([]bool, a.Size())
	for _, v := range ec.Interface {
		onIface[v] = true
	}
	sig := a.Signature()
	for ri := 0; ri < sig.NumRels(); ri++ {
		r := sig.Rel(ri)
		nt := make([]int, r.Arity)
		a.ForEachTuple(r.Name, func(t []int) bool {
			quantified := false
			for j, v := range t {
				if old2new[v] < 0 {
					return true
				}
				nt[j] = old2new[v]
				quantified = quantified || !onIface[v]
			}
			if quantified {
				_ = sub.AddTuple(r.Name, nt...) // arity and indices are a's own
			}
			return true
		})
	}
	return sub, old2new
}

// sameTuples reports whether a and b have the same size and the same
// tuples, element names aside.
func sameTuples(a, b *structure.Structure) bool {
	if a.Size() != b.Size() || a.NumTuples() != b.NumTuples() {
		return false
	}
	same := true
	sig := a.Signature()
	for ri := 0; ri < sig.NumRels(); ri++ {
		name := sig.Rel(ri).Name
		a.ForEachTuple(name, func(t []int) bool {
			same = same && b.HasTuple(name, t)
			return same
		})
	}
	return same
}

// TestPredicateTableMatchesSolver is the table-level differential of the
// nested projection DP: for random ∃-components and random structures the
// predicate table holds exactly the interface assignments
// hom.ForEachExtendable reports for the component as compiled (interface-
// only atoms stripped), each once; and cut back by the stripped atoms it
// is exactly the solver's answer for the unstripped component.  Every
// third round forces the wide-bag spill keys.
func TestPredicateTableMatchesSolver(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 80
	}
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := randomExistsComponent(rng)
		c, sub, full, iface := existsConstraint(t, p)
		pa := p.A.Database()
		// onIface reports whether an interface assignment satisfies the
		// atoms of the component that lie on the interface alone.
		onIface := func(b *structure.Structure) func(row []int) bool {
			return func(row []int) bool {
				ok := true
				for _, r := range predSig().Rels() {
					pa.ForEachTuple(r.Name, func(tu []int) bool {
						img := make([]int, len(tu))
						for j, v := range tu {
							if v >= len(p.S) {
								return true // touches the quantified part
							}
							img[j] = row[v]
						}
						ok = ok && b.HasTuple(r.Name, img)
						return ok
					})
				}
				return ok
			}
		}
		for _, n := range []int{0, 1, 2, 3 + rng.Intn(4)} {
			b := randomPredStructure(rng, n)
			restore := func() {}
			if seed%3 == 0 {
				restore = ForcePackedKeyBudget(0)
			}
			tab := NewSession(b).tableFor(c, nil)
			restore()
			got, want := predRows(tab, nil), solverRows(sub, b, iface)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d n %d: component %v interface %v\n table  %v\n solver %v", seed, n, sub, iface, got, want)
			}
			got, want = predRows(tab, onIface(b)), solverRows(full, b, iface)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d n %d: unstripped component %v interface %v\n table cut back %v\n solver         %v", seed, n, full, iface, got, want)
			}
		}
	}
}

// TestPredicateTableRowsMatchTuples puts the same random ∃-components on
// both sides of the row layout: on a structure whose E tables fit it and
// on that structure padded until nothing does (PadIsolated), the predicate
// tables agree row for row, and with the solver; the padded
// materialization binds nothing from rows, and the rows side does.  A
// table born as rows holds the same rows in its other orientation.
func TestPredicateTableRowsMatchTuples(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 30
	}
	onRows, born := 0, 0
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c, sub, _, iface := existsConstraint(t, randomExistsComponent(rng))
		n := []int{64, 65, 100, 128, 129}[seed%5]
		b := RowsStructure(n, (2+rng.Intn(6))*n, rng.Intn(2*n), int64(seed))
		before := rowBinds.Load()
		tab := NewSession(b).tableFor(c, nil)
		rows := predRows(tab, nil)
		if rowBinds.Load() > before {
			onRows++
		}
		if bornRows(tab) {
			born++
			if other := bitPairs(tab.rows(1), n, true, nil); fmt.Sprint(other) != fmt.Sprint(rows) {
				t.Fatalf("seed %d n %d: component %v interface %v\n rows(0) %v\n rows(1) %v", seed, n, sub, iface, rows, other)
			}
		}
		scans := 0 // positions some node scans the universe for: the padded one is 20 × as large
		for _, nm := range c.pred.nodes {
			scans = max(scans, len(nm.freePos))
		}
		if scans < 2 {
			before = rowBinds.Load()
			tuples := predRows(NewSession(PadIsolated(b)).tableFor(c, nil), nil)
			if binds := rowBinds.Load() - before; binds != 0 {
				t.Fatalf("seed %d: %d positions bound from rows on the padded structure", seed, binds)
			}
			if fmt.Sprint(rows) != fmt.Sprint(tuples) {
				t.Fatalf("seed %d n %d: component %v interface %v\n rows   %v\n tuples %v", seed, n, sub, iface, rows, tuples)
			}
		}
		if len(iface) < 3 { // the solver enumerates |B|^|iface| candidates
			if want := solverRows(sub, b, iface); fmt.Sprint(rows) != fmt.Sprint(want) {
				t.Fatalf("seed %d n %d: component %v interface %v\n table  %v\n solver %v", seed, n, sub, iface, rows, want)
			}
		}
	}
	if onRows < rounds/4 || born < rounds/16 {
		t.Fatalf("of %d materializations %d bound a position from rows and %d were born as rows: the rows side was not exercised", rounds, onRows, born)
	}
}

// Counts that share a session share its tables built as rows and the
// pooled accumulators: goroutines that at once transpose a predicate
// table's other orientation, and count through it or through a 4-cycle's
// flat weights, all count right (run under -race).
func TestBornRowsSharedAcrossGoroutines(t *testing.T) {
	pl, pred := predicateFixture(t)
	c4, err := Compile(compilePP(t, workload.EdgeSig(), "c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(workload.EdgeSig(), 120, 8.0/120, 20160626)
	plans := []Plan{pl, c4}
	want := make([]*big.Int, len(plans))
	for i, p := range plans {
		if want[i], err = p.CountIn(context.Background(), NewSession(b)); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSession(b)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tab := s.tableFor(pred, nil); g%2 == 0 {
				tab.rows(1)
			}
			for i, p := range plans {
				if got, err := p.CountIn(context.Background(), s); err != nil || got.Cmp(want[i]) != 0 {
					t.Errorf("goroutine %d, %v: %v (%v), want %v", g, p.Formula(), got, err, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// ∃-components that differ only in the names of their elements and in
// atoms on the interface alone share one table key; a different
// interface column order does not.
func TestPredKeyIsStructural(t *testing.T) {
	sig := predSig()
	key := func(src string) tableKey {
		t.Helper()
		pl, err := Compile(compilePP(t, sig, src), FPT)
		if err != nil {
			t.Fatal(err)
		}
		return firstPredicate(t, pl).key
	}
	base := key("q(x,y) := exists z. E(x,z) & E(z,y)")
	if k := key("q(x,y) := exists w. E(x,w) & E(w,y)"); k != base {
		t.Errorf("renaming the bound variable changed the key: %q vs %q", k.enc, base.enc)
	}
	if k := key("q(x,y) := exists z. E(x,z) & E(z,y) & E(x,y) & E(y,x)"); k != base {
		t.Errorf("interface-only atoms changed the key: %q vs %q", k.enc, base.enc)
	}
	if k := key("q(x,y) := exists z. E(y,z) & E(z,x)"); k == base {
		t.Errorf("the converse predicate got the same key %q", k.enc)
	}
}

// A wide ∃-component on data full of witnesses: a quantified K4 hanging
// off one free variable, on the complete graph with loops on 80 vertices,
// where the K4 bag has 80⁴ ≈ 4·10⁷ assignments and every one is a
// witness.  The nested run needs one per interface value and must stop
// there (cut in enumerate) — enumerating the bag in full takes seconds, the
// witness search well under the bound below — which is why no second
// mechanism, a solver selected by the nested decomposition's width, sits
// beside the DP (BenchmarkMaterialize_PredicateK4_N60 has the comparison
// on a random graph).
func TestWideComponentStopsAtFirstWitness(t *testing.T) {
	sig := predSig()
	pl, err := Compile(compilePP(t, sig,
		"q(x) := exists a, b, c, d. E(x,a) & E(a,b) & E(a,c) & E(a,d) & E(b,c) & E(b,d) & E(c,d)"), FPT)
	if err != nil {
		t.Fatal(err)
	}
	const n = 80
	b := structure.New(sig)
	for i := 0; i < n; i++ {
		b.EnsureElem(fmt.Sprintf("e%d", i))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			_ = b.AddTuple("E", u, v)
		}
	}
	start := time.Now()
	got, err := pl.CountIn(context.Background(), NewSession(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != n {
		t.Fatalf("count %v, want %d", got, n)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("materializing the K4 predicate took %v: the nested run enumerated the bag instead of stopping at a witness", el)
	}
}
