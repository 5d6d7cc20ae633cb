package engine

import (
	"context"
	"fmt"
	"math/big"
	"sort"

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
	// Predicate constraint:
	sub      *structure.Structure // ∃-component structure (nil for atoms)
	iface    []int                // projection elements inside sub, aligned with scope
	pred     *planComponent       // sub compiled for the join executor (compilePredicate)
	predProj []int                // pred's root-bag positions of iface

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
	plan := &fptPlan{p: p, sig: p.A.Signature(), shape: sh}
	for i := range sh.Components {
		pc, err := compileComponent(sh, &sh.Components[i])
		if err != nil {
			return nil, err
		}
		plan.comps = append(plan.comps, pc)
	}
	plan.deltaOK = deltaMaintainable(plan.comps)
	return plan, nil
}

func compileComponent(sh *pp.Shape, comp *pp.ComponentShape) (*planComponent, error) {
	a := sh.Formula.A
	if len(comp.Lib) == 0 { // a sentence: one zero-width predicate on its one ∃-component
		ec := &sh.Exists[comp.Exists[0]]
		sub, _ := existsSub(a, ec)
		pred, _, err := compilePredicate(sub, nil, ec.Pred)
		if err != nil {
			return nil, err
		}
		c := planConstraint{sub: sub, pred: pred}
		c.key = makeTableKey(&c)
		return &planComponent{constraints: []planConstraint{c}}, nil
	}
	// Constraint scopes are positions into comp.Active: the liberal
	// variables some atom or interface covers.  The others are free.
	pos := make([]int, a.Size())
	for v := range pos {
		pos[v] = -1
	}
	for i, v := range comp.Active {
		pos[v] = i
	}

	// (a) atoms entirely on liberal variables.
	cons := atomConstraints(a, pos)

	// (b) ∃-component predicates.  comp is Gaifman-connected and has a
	// liberal variable, so every ∃-component borders one: no interface is
	// empty.
	for _, e := range comp.Exists {
		ec := &sh.Exists[e]
		sub, old2new := existsSub(a, ec)
		// Interface sorted by scope position (comp.Active and ec.Interface
		// are both ascending, so it already is).
		iface := make([]int, len(ec.Interface))
		scope := make([]int, len(ec.Interface))
		for i, v := range ec.Interface {
			iface[i] = old2new[v]
			scope[i] = pos[v]
		}
		pred, proj, err := compilePredicate(sub, iface, ec.Pred)
		if err != nil {
			return nil, err
		}
		cons = append(cons, planConstraint{scope: scope, sub: sub, iface: iface, pred: pred, predProj: proj})
	}
	for i := range cons {
		cons[i].key = makeTableKey(&cons[i])
	}

	pc := &planComponent{
		nActive:     len(comp.Active),
		freeVars:    len(comp.Lib) - len(comp.Active),
		constraints: cons,
	}
	if comp.Contract != nil {
		if err := pc.place(comp.Contract); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

// atomConstraints returns one atom constraint per tuple of a whose
// arguments all have a variable position (pos[v] ≥ 0), scoped on those
// positions.  One sorted-dedup scratch buffer serves every atom;
// position-in-scope lookups are binary searches on the sorted scope.
func atomConstraints(a *structure.Structure, pos []int) []planConstraint {
	var cons []planConstraint
	var scopeBuf []int
	sig := a.Signature()
	for ri := 0; ri < sig.NumRels(); ri++ {
		r := sig.Rel(ri)
		a.ForEachTuple(r.Name, func(t []int) bool {
			scopeBuf = scopeBuf[:0]
			for _, v := range t {
				if pos[v] < 0 {
					return true
				}
				scopeBuf = append(scopeBuf, pos[v])
			}
			sort.Ints(scopeBuf)
			scope := make([]int, 0, len(scopeBuf))
			for i, s := range scopeBuf {
				if i == 0 || s != scopeBuf[i-1] {
					scope = append(scope, s)
				}
			}
			tmpl := make([]int, len(t))
			for j, v := range t {
				tmpl[j] = sort.SearchInts(scope, pos[v])
			}
			cons = append(cons, planConstraint{scope: scope, rel: r.Name, atomTmpl: tmpl})
			return true
		})
	}
	return cons
}

// existsSub builds the structure of an ∃-component: a induced on the
// component's vertices, minus the atoms lying entirely on its interface.
// Those atoms are liberal-only, hence already atom constraints of the
// enclosing component; dropping them here only widens the predicate to a
// superset the enclosing join cuts back, and lets ∃-components that
// differ in nothing else share one table (predKey).
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

// compilePredicate compiles the predicate "iface extends to a
// homomorphism of sub" (for a sentence, iface is empty: "sub maps into
// the structure") into a nested component over all of sub's
// elements, to be run by the join executor in the existence semiring
// (Session.materializePredicate): the bounded treewidth of the core (Theorem 3.2)
// is what bounds this component's bags.  Its constraints are sub's atoms,
// so their tables are the session's shared atom tables.  dec is the
// ∃-component's decomposition (pp.ExistsComponent.Pred): its graph has
// one extra clique on the interface, and its root bag holds the whole
// interface.  proj lists the root-bag positions of iface, in iface order:
// the root's projection onto them is the predicate's table.
func compilePredicate(sub *structure.Structure, iface []int, dec *tw.Decomposition) (pc *planComponent, proj []int, err error) {
	n := sub.Size()
	pos := make([]int, n)
	for v := range pos {
		pos[v] = v
	}
	cons := atomConstraints(sub, pos)
	for i := range cons {
		cons[i].key = makeTableKey(&cons[i])
	}
	pc = &planComponent{nActive: n, constraints: cons}
	if err := pc.place(dec); err != nil {
		return nil, nil, err
	}
	proj = make([]int, len(iface))
	for i, v := range iface {
		proj[i] = sort.SearchInts(dec.Bags[pc.root], v)
	}
	return pc, proj, nil
}

// place installs the decomposition, which it shares and does not edit:
// every constraint goes to the first bag containing its scope, the tree's
// child lists and root are derived from the parent pointers, and the
// per-node metadata is compiled.
func (pc *planComponent) place(dec *tw.Decomposition) error {
	pc.dec = dec
	pc.consAt = make([][]int, len(dec.Bags))
	for ci, c := range pc.constraints {
		placed := false
		for ni, bag := range dec.Bags {
			if containsAll(bag, c.scope) {
				pc.consAt[ni] = append(pc.consAt[ni], ci)
				placed = true
				break
			}
		}
		if !placed {
			return fmt.Errorf("engine: constraint scope %v fits in no bag", c.scope)
		}
	}
	pc.children = make([][]int, len(dec.Bags))
	pc.root = -1
	for i, p := range dec.Parent {
		if p == -1 {
			pc.root = i
		} else {
			pc.children[p] = append(pc.children[p], i)
		}
	}
	pc.compileNodes()
	return nil
}

// compileNodes precomputes the per-node executor metadata (scope→bag
// position maps, free bag positions, child merge projections) so that
// binding and executing a plan does zero formula-dependent setup.  Bags
// are sorted, so position lookups are binary searches and shared
// positions come from linear merges.
func (pc *planComponent) compileNodes() {
	pc.nodes = make([]nodeMeta, len(pc.dec.Bags))
	// One buffer holds every constraint's scope→bag map, one the covered
	// marks of the bag at hand.
	total, widest := 0, 0
	for _, c := range pc.constraints {
		total += len(c.scope)
	}
	for _, bag := range pc.dec.Bags {
		widest = max(widest, len(bag))
	}
	flat, marks := make([]int, total), make([]bool, widest)
	for ni, bag := range pc.dec.Bags {
		nm := &pc.nodes[ni]
		covered := marks[:len(bag)]
		clear(covered)
		nm.scopeBag = make([][]int, len(pc.consAt[ni]))
		for k, ci := range pc.consAt[ni] {
			scope := pc.constraints[ci].scope
			sb := flat[:len(scope):len(scope)]
			flat = flat[len(scope):]
			for j, v := range scope {
				bi := sort.SearchInts(bag, v) // containsAll guaranteed the hit
				sb[j] = bi
				covered[bi] = true
			}
			nm.scopeBag[k] = sb
		}
		for i := range bag {
			if !covered[i] {
				nm.freePos = append(nm.freePos, i)
			}
		}
		for _, c := range pc.children[ni] {
			sb, sc := sharedPositions(bag, pc.dec.Bags[c])
			nm.groups = append(nm.groups, groupMeta{child: c, sharedBag: sb, sharedChild: sc})
			nm.shared = append(nm.shared, sb...)
			pc.nodes[c].shared = append(pc.nodes[c].shared, sc...)
		}
	}
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
