package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/tw"
)

// fptPlan is the compiled form of the Theorem 2.11 counting algorithm for
// a fixed pp-formula: everything that depends only on the formula — the
// core, its components, the ∃-components with their interfaces, the
// contract-graph tree decompositions, the constraint-to-bag assignment
// and the per-node scope/projection position maps — is computed once, so
// that repeated counts against different structures only materialize the
// structure-dependent predicate tables (cached in the Session), bind the
// per-node constraint orders to the table sizes (cached per component and
// session), and run the join-count DP (exec.go).
type fptPlan struct {
	p     pp.PP
	sig   *structure.Signature
	shape *pp.Shape
	comps []*planComponent

	// deltaOK marks the plan as delta-maintainable (delta.go): every
	// component is a quantifier-free join over atom constraints — no
	// predicate tables, sentences' included.  Only then is
	// each component's join value a pure function of its constraint
	// tables, which is what the telescoped delta-join advance relies on.
	deltaOK bool
}

// planConstraint is a constraint scheme over liberal positions of one
// component: either an atom entirely on liberal variables, or an
// ∃-component predicate.
type planConstraint struct {
	scope []int // positions into the component's active variables
	// Atom constraint:
	rel      string
	atomTmpl []int // for atoms: position-in-scope per argument (repeats kept)
	// Predicate constraint (pred non-nil): the ∃-component compiled for
	// the join executor over its own elements (compilePredicate), and the
	// root-bag positions of its interface, aligned with scope.
	pred     *planComponent
	predProj []int

	// key identifies the materialized table of this constraint within a
	// Session, enabling sharing across plans and repeated counts.
	key tableKey
}

// groupMeta is the compile-time part of one parent–child merge: the
// positions the child's bag shares with the parent's, in each.
type groupMeta struct {
	child       int
	sharedBag   []int // indices into the parent bag
	sharedChild []int // indices into the child bag
}

// nodeMeta is the compile-time description of one decomposition node:
// where each local constraint's scope lands in the bag, which bag
// positions no local constraint covers, and the child merge projections.
// All of it used to be recomputed inside every joinCount call.
type nodeMeta struct {
	scopeBag [][]int // aligned with consAt[node]: scope position j → bag index
	freePos  []int   // bag positions covered by no constraint at this node
	groups   []groupMeta
	shared   []int // bag positions shared with the parent or a child
}

// planComponent is one Gaifman component of the cored formula, or the
// nested component of an ∃-component predicate (compilePredicate).
type planComponent struct {
	nActive     int // number of constraint-covered liberal positions
	freeVars    int // liberal positions covered by no constraint: factor |B| each
	constraints []planConstraint
	dec         *tw.Decomposition
	consAt      [][]int // node -> constraint indices
	children    [][]int
	nodes       []nodeMeta
	root        int
}

// planFrom compiles a plan that counts p by counting sh's formula, which
// must have the same answers as p on every structure (p itself, or its
// core).  Every decomposition is sh's.
func planFrom(p pp.PP, sh *pp.Shape) (*fptPlan, error) {
	plan := &fptPlan{p: p, sig: p.A.Signature(), shape: sh, comps: make([]*planComponent, len(sh.Components))}
	pcl := compilerFor(sh.Formula.A)
	defer pcl.release()
	for i := range sh.Components {
		pc, err := pcl.component(sh, &sh.Components[i])
		if err != nil {
			return nil, err
		}
		plan.comps[i] = pc
	}
	pcl.finishKeys()
	plan.deltaOK = deltaMaintainable(plan.comps)
	return plan, nil
}

// planCompiler is a plan compile's scratch.  The formula's atoms are
// read off its structure once, into a flat list; an ∃-component is cut
// from that list, never built as a structure; every table key of the
// plan is encoded into one buffer that becomes one string at the end
// (finishKeys); and each component's index lists are carved from one
// buffer of its own.  A plan keeps nothing of the compiler but that
// string.
type planCompiler struct {
	sig *structure.Signature
	// atoms lists the formula's atoms flat: relation index, arity, then
	// the arguments; relations in signature order, tuples in row order.
	// sub lists the ∃-component at hand's atoms the same way, renumbered.
	atoms, sub []int
	pos        []int  // element → scope position in the component at hand, else -1
	renum      []int  // element → index in the ∃-component at hand, else -1
	onIface    []bool // element → on the ∃-component at hand's interface
	iface      []int  // that interface, renumbered
	keys       []byte
	spans      []keySpan
	tuples     []byte // predKey's tuple encodings, one relation at a time
	ends       []int  // their ends in tuples
	scratch    []int  // predKey's numbering and order, place's counts
	marks      []bool // place's covered bag positions
}

// keySpan says whose key ends where in planCompiler.keys: the key of
// constraint ci of pc starts where the span before it ends.
type keySpan struct {
	pc     *planComponent
	ci, hi int
}

// compilers recycles plan compilers: a compile takes one (compilerFor)
// and puts it back (release), so the scratch grows to the largest
// formula compiled and stops allocating.
var compilers = sync.Pool{New: func() any { return new(planCompiler) }}

// compilerFor returns a compiler from the pool, loaded with a's atoms.
func compilerFor(a *structure.Atoms) *planCompiler {
	pcl := compilers.Get().(*planCompiler)
	sig, n := a.Signature(), a.Size()
	pcl.sig = sig
	pcl.pos, pcl.renum = resize(pcl.pos, n), resize(pcl.renum, n)
	for v := 0; v < n; v++ {
		pcl.pos[v], pcl.renum[v] = -1, -1
	}
	if cap(pcl.onIface) < n {
		pcl.onIface = make([]bool, n)
	}
	pcl.onIface = pcl.onIface[:n]
	clear(pcl.onIface)
	pcl.atoms, pcl.keys, pcl.spans = pcl.atoms[:0], pcl.keys[:0], pcl.spans[:0]
	for ri := 0; ri < sig.NumRels(); ri++ {
		ar := sig.Rel(ri).Arity
		for args := a.Args(ri); len(args) > 0; args = args[ar:] {
			pcl.atoms = append(pcl.atoms, ri, ar)
			for _, v := range args[:ar] {
				pcl.atoms = append(pcl.atoms, int(v))
			}
		}
	}
	return pcl
}

// release puts the compiler back in the pool, holding no plan.
func (pcl *planCompiler) release() {
	clear(pcl.spans)
	pcl.sig = nil
	compilers.Put(pcl)
}

// resize returns s with length n, reallocated if it lacks the room.
func resize(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func (pcl *planCompiler) component(sh *pp.Shape, comp *pp.ComponentShape) (*planComponent, error) {
	pc := &planComponent{}
	if len(comp.Lib) == 0 { // a sentence: one zero-width predicate on its one ∃-component
		pc.constraints = make([]planConstraint, 1)
		return pc, pcl.predicate(pc, 0, &sh.Exists[comp.Exists[0]], nil)
	}
	// Constraint scopes are positions into comp.Active: the liberal
	// variables some atom or interface covers.  The others are free.
	for i, v := range comp.Active {
		pcl.pos[v] = i
	}
	// (a) atoms entirely on liberal variables; (b) ∃-component predicates.
	// comp is Gaifman-connected and has a liberal variable, so every
	// ∃-component borders one: no interface is empty.
	nAtoms, size := countAtoms(pcl.atoms, pcl.pos)
	for _, e := range comp.Exists {
		size += len(sh.Exists[e].Interface)
	}
	pc.constraints = make([]planConstraint, nAtoms+len(comp.Exists))
	buf := pcl.atomConstraints(pc, pcl.atoms, pcl.pos, make([]int, size))
	for k, e := range comp.Exists {
		ec := &sh.Exists[e]
		// Interface sorted by scope position (comp.Active and ec.Interface
		// are both ascending, so it already is).
		scope := carve(&buf, len(ec.Interface))
		for _, v := range ec.Interface {
			scope = append(scope, pcl.pos[v])
		}
		if err := pcl.predicate(pc, nAtoms+k, ec, scope); err != nil {
			return nil, err
		}
	}
	for _, v := range comp.Active { // the next component's atoms are not on scope
		pcl.pos[v] = -1
	}
	pc.nActive, pc.freeVars = len(comp.Active), len(comp.Lib)-len(comp.Active)
	if comp.Contract != nil {
		if err := pcl.place(pc, comp.Contract); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

// countAtoms returns how many atoms of the flat list have every argument
// on a scope position (pos[v] ≥ 0; a nil pos is the identity), and how
// many ints their scopes and templates need.
func countAtoms(atoms, pos []int) (n, size int) {
	for i := 0; i < len(atoms); i += 2 + atoms[i+1] {
		if onScope(atoms[i+2:i+2+atoms[i+1]], pos) {
			n, size = n+1, size+2*atoms[i+1]
		}
	}
	return n, size
}

func onScope(args, pos []int) bool {
	return pos == nil || !slices.ContainsFunc(args, func(v int) bool { return pos[v] < 0 })
}

// atomConstraints fills pc's first constraints, one atom constraint per
// atom of the flat list that countAtoms counts, scoped on its arguments'
// positions, and returns what is left of buf: every scope and template is
// carved from it.  Template lookups are binary searches on the sorted
// scope.
func (pcl *planCompiler) atomConstraints(pc *planComponent, atoms, pos, buf []int) []int {
	k := 0
	for i := 0; i < len(atoms); i += 2 + atoms[i+1] {
		args := atoms[i+2 : i+2+atoms[i+1]]
		if !onScope(args, pos) {
			continue
		}
		scope, tmpl := buf[:len(args):len(args)], buf[len(args):2*len(args):2*len(args)]
		buf = buf[2*len(args):]
		for j, v := range args {
			if pos != nil {
				v = pos[v]
			}
			scope[j], tmpl[j] = v, v
		}
		slices.Sort(scope)
		scope = slices.Clip(slices.Compact(scope))
		for j, v := range tmpl {
			tmpl[j] = sort.SearchInts(scope, v)
		}
		c := &pc.constraints[k]
		c.scope, c.rel, c.atomTmpl = scope, pcl.sig.Rel(atoms[i]).Name, tmpl
		// The atom table's key: the template as structure.TupleKey
		// encodes it, ';', the scope's width.
		c.key.kind, c.key.rel = 'a', c.rel
		for _, v := range tmpl {
			pcl.keys = binary.LittleEndian.AppendUint64(pcl.keys, uint64(v))
		}
		pcl.keys = strconv.AppendInt(append(pcl.keys, ';'), int64(len(scope)), 10)
		pcl.endKey(pc, k)
		k++
	}
	return buf
}

// predicate compiles ∃-component ec into constraint ci of pc, on the
// scope positions of its interface (nil for a sentence: zero width).
// Its atoms are ec's, renumbered by index in ec.Vertices (the order in
// which Atoms.Induced would number them), minus the atoms lying
// entirely on its interface.  Those are liberal-only, hence already atom
// constraints of the enclosing component; dropping them here only widens
// the predicate to a superset the enclosing join cuts back, and lets
// ∃-components that differ in nothing else share one table (predKey).
func (pcl *planCompiler) predicate(pc *planComponent, ci int, ec *pp.ExistsComponent, scope []int) error {
	for i, v := range ec.Vertices {
		pcl.renum[v] = i
	}
	for _, v := range ec.Interface {
		pcl.onIface[v] = true
	}
	sub, iface := pcl.sub[:0], pcl.iface[:0]
	for i := 0; i < len(pcl.atoms); i += 2 + pcl.atoms[i+1] {
		args := pcl.atoms[i+2 : i+2+pcl.atoms[i+1]]
		inside, quantified := true, false
		for _, v := range args {
			inside = inside && pcl.renum[v] >= 0
			quantified = quantified || !pcl.onIface[v]
		}
		if inside && quantified {
			sub = append(sub, pcl.atoms[i], len(args))
			for _, v := range args {
				sub = append(sub, pcl.renum[v])
			}
		}
	}
	for _, v := range ec.Interface {
		iface = append(iface, pcl.renum[v])
		pcl.onIface[v] = false
	}
	for _, v := range ec.Vertices {
		pcl.renum[v] = -1
	}
	pcl.sub, pcl.iface = sub, iface
	pred, proj, err := pcl.compilePredicate(sub, len(ec.Vertices), iface, ec.Pred)
	if err != nil {
		return err
	}
	c := &pc.constraints[ci]
	c.scope, c.pred, c.predProj = scope, pred, proj
	c.key.kind = 'p'
	pcl.predKey(sub, len(ec.Vertices), iface)
	pcl.endKey(pc, ci)
	return nil
}

// compilePredicate compiles the predicate "iface extends to a
// homomorphism of the component" — the flat atom list sub on n elements;
// for a sentence, iface is empty: "the component maps into the
// structure" — into a nested component over all n elements, to be run by
// the join executor in the existence semiring
// (Session.materializePredicate): the bounded treewidth of the core
// (Theorem 3.2) is what bounds this component's bags.  Its constraints
// are sub's atoms, so their tables are the session's shared atom tables.
// dec is the ∃-component's decomposition (pp.ExistsComponent.Pred): its
// graph has one extra clique on the interface, and its root bag holds
// the whole interface.  proj lists the root-bag positions of iface, in
// iface order: the root's projection onto them is the predicate's table.
func (pcl *planCompiler) compilePredicate(sub []int, n int, iface []int, dec *tw.Decomposition) (pc *planComponent, proj []int, err error) {
	nAtoms, size := countAtoms(sub, nil)
	pc = &planComponent{nActive: n, constraints: make([]planConstraint, nAtoms)}
	buf := pcl.atomConstraints(pc, sub, nil, make([]int, size+len(iface)))
	if err := pcl.place(pc, dec); err != nil {
		return nil, nil, err
	}
	proj = buf[:len(iface):len(iface)]
	for i, v := range iface {
		proj[i] = sort.SearchInts(dec.Bags[pc.root], v)
	}
	return pc, proj, nil
}

// predKey appends the key of an ∃-component's predicate table — its flat
// atom list sub on n elements, and its interface — up to the names of
// its elements: the interface elements are renumbered 0..k-1 in iface
// order (the table's column order), the quantified ones k.. in index
// order, and each relation's renumbered tuples are listed sorted.  Equal
// keys mean isomorphic components with matching interface columns, hence
// identical predicate tables on every structure; the encoding is not a
// canonical form — components that differ in the order of their
// quantified elements get distinct keys and merely miss the sharing.
func (pcl *planCompiler) predKey(sub []int, n int, iface []int) {
	buf := pcl.grow(n + len(sub)/2) // every atom takes at least two ints
	num, orders := buf[:n], buf[n:]
	for v := range num {
		num[v] = -1
	}
	for i, v := range iface {
		num[v] = i
	}
	next := len(iface)
	for v := range num {
		if num[v] < 0 {
			num[v] = next
			next++
		}
	}
	pcl.keys = strconv.AppendInt(pcl.keys, int64(len(iface)), 10)
	for i := 0; i < len(sub); {
		r := sub[i]
		// The relation's tuples, each encoded ",a,b…" after the last.
		tuples, ends := pcl.tuples[:0], pcl.ends[:0]
		for ; i < len(sub) && sub[i] == r; i += 2 + sub[i+1] {
			for _, v := range sub[i+2 : i+2+sub[i+1]] {
				tuples = strconv.AppendInt(append(tuples, ','), int64(num[v]), 10)
			}
			ends = append(ends, len(tuples))
		}
		pcl.tuples, pcl.ends = tuples, ends
		tuple := func(t int) []byte {
			if t == 0 {
				return tuples[:ends[0]]
			}
			return tuples[ends[t-1]:ends[t]]
		}
		order := orders[:len(ends)]
		for t := range order {
			order[t] = t
		}
		slices.SortFunc(order, func(s, t int) int { return bytes.Compare(tuple(s), tuple(t)) })
		pcl.keys = append(append(pcl.keys, ';'), pcl.sig.Rel(r).Name...)
		for _, t := range order {
			pcl.keys = append(append(pcl.keys, '('), tuple(t)...)
		}
	}
}

// endKey records that constraint ci of pc's key ends here.
func (pcl *planCompiler) endKey(pc *planComponent, ci int) {
	pcl.spans = append(pcl.spans, keySpan{pc: pc, ci: ci, hi: len(pcl.keys)})
}

// finishKeys makes every key encoded so far one string, and gives each
// constraint its substring.
func (pcl *planCompiler) finishKeys() {
	all, lo := string(pcl.keys), 0
	for _, sp := range pcl.spans {
		sp.pc.constraints[sp.ci].key.enc = all[lo:sp.hi]
		lo = sp.hi
	}
}

// grow returns the scratch ints, n of them, holding anything.
func (pcl *planCompiler) grow(n int) []int {
	pcl.scratch = resize(pcl.scratch, n)
	return pcl.scratch
}

// carve returns an empty slice of capacity n from the front of *buf, and
// advances *buf past it.
func carve(buf *[]int, n int) []int {
	s := (*buf)[:0:n]
	*buf = (*buf)[n:]
	return s
}

// place installs the decomposition, which it shares and does not edit:
// every constraint goes to the first bag containing its scope, the tree's
// child lists and root are derived from the parent pointers, and the
// per-node executor metadata is precomputed (scope→bag position maps,
// free bag positions, child merge projections) so that binding and
// executing a plan does zero formula-dependent setup.  Bags are sorted,
// so position lookups are binary searches and shared positions come from
// linear merges.  A first pass sizes every list, so that all of the
// component's index lists are carved from one buffer, their headers from
// another, and the groups from a third.
func (pcl *planCompiler) place(pc *planComponent, dec *tw.Decomposition) error {
	bags, nc := dec.Bags, len(pc.constraints)
	nb := len(bags)
	// Scratch: each constraint's bag, then per bag its constraint count,
	// its child count and the positions it shares with its tree
	// neighbours.
	counts := pcl.grow(nc + 3*nb)
	home, nCons, nKids, nShared := counts[:nc], counts[nc:nc+nb], counts[nc+nb:nc+2*nb], counts[nc+2*nb:]
	clear(counts[nc:])
	size := nc
	for ci := range pc.constraints {
		scope := pc.constraints[ci].scope
		home[ci] = slices.IndexFunc(bags, func(bag []int) bool { return containsAll(bag, scope) })
		if home[ci] < 0 {
			return fmt.Errorf("engine: constraint scope %v fits in no bag", scope)
		}
		nCons[home[ci]]++
		size += len(scope)
	}
	pc.dec, pc.root = dec, -1
	widest, edges := 0, 0
	for i, p := range dec.Parent {
		widest = max(widest, len(bags[i]))
		if p == -1 {
			pc.root = i
			continue
		}
		k := countShared(bags[p], bags[i])
		edges++
		nKids[p]++
		nShared[p] += k
		nShared[i] += k
		size += 1 + 2*k // the child's index, and a group's two projections
	}
	if cap(pcl.marks) < widest {
		pcl.marks = make([]bool, widest)
	}
	for ni, bag := range bags {
		size += nShared[ni] + pcl.freeCount(pc, home, ni, bag)
	}

	flat, hdrs := make([]int, size), make([][]int, 2*nb+nc)
	pc.consAt, pc.children, hdrs = hdrs[:nb:nb], hdrs[nb:2*nb:2*nb], hdrs[2*nb:]
	for ni := range bags {
		pc.consAt[ni], pc.children[ni] = carve(&flat, nCons[ni]), carve(&flat, nKids[ni])
	}
	for ci, ni := range home {
		pc.consAt[ni] = append(pc.consAt[ni], ci)
	}
	for i, p := range dec.Parent {
		if p != -1 {
			pc.children[p] = append(pc.children[p], i)
		}
	}
	pc.nodes = make([]nodeMeta, nb)
	for ni := range pc.nodes {
		pc.nodes[ni].shared = carve(&flat, nShared[ni])
	}
	groups := make([]groupMeta, 0, edges)
	for ni, bag := range bags {
		nm := &pc.nodes[ni]
		covered := pcl.marks[:len(bag)]
		clear(covered)
		nm.scopeBag, hdrs = hdrs[:len(pc.consAt[ni]):len(pc.consAt[ni])], hdrs[len(pc.consAt[ni]):]
		for k, ci := range pc.consAt[ni] {
			scope := pc.constraints[ci].scope
			sb := carve(&flat, len(scope))
			for _, v := range scope {
				bi := sort.SearchInts(bag, v) // containsAll guaranteed the hit
				sb = append(sb, bi)
				covered[bi] = true
			}
			nm.scopeBag[k] = sb
		}
		nm.freePos = carve(&flat, len(bag)-bitCount(covered))
		for i, cov := range covered {
			if !cov {
				nm.freePos = append(nm.freePos, i)
			}
		}
		first := len(groups)
		for _, c := range pc.children[ni] {
			k := countShared(bag, bags[c])
			sb, sc := sharedPositions(bag, bags[c], carve(&flat, k), carve(&flat, k))
			groups = append(groups, groupMeta{child: c, sharedBag: sb, sharedChild: sc})
			nm.shared = append(nm.shared, sb...)
			pc.nodes[c].shared = append(pc.nodes[c].shared, sc...)
		}
		nm.groups = groups[first:len(groups):len(groups)]
	}
	return nil
}

// freeCount returns how many positions of bag ni no constraint placed
// there (home) covers.
func (pcl *planCompiler) freeCount(pc *planComponent, home []int, ni int, bag []int) int {
	covered := pcl.marks[:len(bag)]
	clear(covered)
	for ci, h := range home {
		if h == ni {
			for _, v := range pc.constraints[ci].scope {
				covered[sort.SearchInts(bag, v)] = true
			}
		}
	}
	return len(bag) - bitCount(covered)
}

// bitCount returns how many of bs are set.
func bitCount(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func (pl *fptPlan) Formula() pp.PP { return pl.p }

func (pl *fptPlan) Shape() *pp.Shape { return pl.shape }

// CountIn executes the plan inside a session, reusing any constraint
// tables already materialized there.  The join-count DP — the
// component's own and the nested runs that materialize its ∃-component
// predicate tables — polls ctx at pivot-row and emission granularity and
// aborts with ctx's error once it fires (partial work discarded, no
// table cached); a sentence is such a nested run.  Atom-table projection
// is not interruptible; cancellation latency is bounded by the largest
// atom table.
func (pl *fptPlan) CountIn(ctx context.Context, s *Session) (*big.Int, error) {
	return pl.countIn(ctx, s, nil)
}

// countIn is the plan's one full count: the product over components of
// |B|^free × J (J the join count).  A non-nil st (sized to the plan, see
// countMaintained) captures every J — the state a later delta advance
// starts from — so the count then runs every component; without it a
// zero factor ends the count early.
func (pl *fptPlan) countIn(ctx context.Context, s *Session, st *fptDeltaState) (*big.Int, error) {
	b := s.B
	if !pl.sig.Equal(b.Signature()) {
		return nil, fmt.Errorf("engine: plan signature %v differs from structure signature %v", pl.sig, b.Signature())
	}
	total := big.NewInt(1)
	for ci, pc := range pl.comps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		join, err := pc.joinIn(ctx, s)
		if err != nil {
			return nil, err
		}
		if st != nil {
			st.joins[ci] = join
		} else if join.Sign() == 0 {
			return new(big.Int), nil
		}
		total.Mul(total, join).Mul(total, structure.PowerSize(b, pc.freeVars))
	}
	return total, nil
}

// joinIn computes the component's join count over the session's
// materialized constraint tables: 0 if one is empty, else 1 if no
// position is active (no constraint, or a sentence's zero-width one).
func (pc *planComponent) joinIn(ctx context.Context, s *Session) (*big.Int, error) {
	done := ctx.Done()
	tables := make([]*Table, len(pc.constraints))
	for ci := range pc.constraints {
		t := s.tableFor(&pc.constraints[ci], done)
		if t == nil {
			return nil, ctxAbortErr(ctx)
		}
		if t.n == 0 {
			return new(big.Int), nil
		}
		tables[ci] = t
	}
	if pc.nActive == 0 {
		return big.NewInt(1), nil
	}
	// Bind the component to this session's tables: semi-join pre-pruning,
	// per-node bind orders, prefix indexes — computed once per
	// (component, session) and cached thereafter.
	ep, empty := s.execPlanFor(pc, tables)
	if empty {
		return new(big.Int), nil
	}
	joined, aborted := joinCount(pc, ep, s.B.Size(), done)
	if aborted {
		return nil, ctxAbortErr(ctx)
	}
	return joined, nil
}

// ctxAbortErr maps an executor abort back to the context's error,
// defaulting to context.Canceled in the (unreachable in practice) case
// where the context reports none.
func ctxAbortErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// containsAll reports whether the sorted set contains every element of
// the sorted subset (both ascending, distinct).
func containsAll(set, subset []int) bool {
	i := 0
	for _, v := range subset {
		for i < len(set) && set[i] < v {
			i++
		}
		if i == len(set) || set[i] != v {
			return false
		}
		i++
	}
	return true
}
