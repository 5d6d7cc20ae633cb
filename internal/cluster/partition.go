package cluster

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/eptrans"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/structure"
)

// Partitioned structures: one logical structure whose domain is split
// across shards as a disjoint union B = B_0 ⊎ … ⊎ B_{k-1} with no tuple
// spanning parts.  The split is along connected components of the
// structure's Gaifman graph (elements adjacent when they co-occur in a
// tuple), so the no-spanning invariant holds by construction.
//
// Counting decomposes exactly over such a partition.  The coordinator
// compiles the ep-query through the same Theorem 3.1 front-end a
// single node uses (eptrans.Compile: normalization, the cancelled
// inclusion–exclusion expansion φ*af, the sentence-entailment filter)
// and then splits every surviving pp-term φ⁻af into the connected
// components of ITS Gaifman graph.  For a disjoint union:
//
//   - a connected component with ≥ 1 liberal variable has answer count
//     Σ_i count(C, B_i) — a homomorphism maps a connected query into a
//     single part, and parts have disjoint domains, so per-part answer
//     sets are disjoint and exhaustive;
//   - a fully-quantified connected component is a satisfiability bit:
//     it holds on B iff it holds on some part;
//   - a liberal variable in no atom ranges over the whole domain,
//     contributing a factor |B| = Σ_i |B_i| per variable;
//   - a quantified variable in no atom needs only a non-empty domain.
//
// A term's count is the product of its component counts times
// |B|^{isolated liberal}; the ep count is the signed coefficient sum
// over terms, exactly as on one node; sentence disjuncts short-circuit
// to |B|^|lib| when every component holds in some part.  The
// recombined count is bit-identical to the single-node count — the
// differential suite asserts that on every query.

// partComponent is one connected component of some term, rendered back
// to query text so shards can count it through their ordinary /count
// path (sharing plans and memos with every other query).
type partComponent struct {
	// query is the rendered component query.  Liberal variables of the
	// component form the head; for a fully-quantified component one
	// variable is promoted to the head so the per-part count is > 0
	// exactly when the component is satisfiable there.
	query string
	// boolean marks a promoted (fully-quantified) component: its
	// recombined value is a 0/1 satisfiability bit, not a count.
	boolean bool
}

// partTerm is one φ⁻af term's recombination recipe.
type partTerm struct {
	coeff *big.Int
	// isoFree is the number of liberal variables in no atom (factor
	// |B|^isoFree with the LOGICAL domain size).
	isoFree int
	// needElem marks a quantified variable in no atom: the term
	// vanishes on an empty domain.
	needElem bool
	// comps indexes the plan's deduplicated component list.
	comps []int
}

// partSentence is one sentence disjunct's recipe: it holds iff every
// component holds in some part (and the domain is non-empty when the
// disjunct mentions any variable).
type partSentence struct {
	needElem bool
	comps    []int
}

// partPlan is a compiled recombination plan for (query, signature):
// which component queries to scatter and how to reassemble their
// per-part counts into the exact logical count.
type partPlan struct {
	lib       int // |lib|: the sentence short-circuit exponent
	comps     []partComponent
	terms     []partTerm
	sentences []partSentence
}

// buildPartitionPlan compiles the query over the signature and derives
// the per-component scatter/recombine recipe described above.
func buildPartitionPlan(src string, sig *structure.Signature) (*partPlan, error) {
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	c, err := eptrans.Compile(q, sig)
	if err != nil {
		return nil, err
	}
	plan := &partPlan{lib: len(q.Lib)}
	dedup := make(map[string]int)
	intern := func(pc partComponent) int {
		if i, ok := dedup[pc.query]; ok {
			return i
		}
		dedup[pc.query] = len(plan.comps)
		plan.comps = append(plan.comps, pc)
		return len(plan.comps) - 1
	}
	for _, t := range c.Minus {
		comps, isoFree, needElem, err := decompose(t.Formula)
		if err != nil {
			return nil, err
		}
		pt := partTerm{coeff: new(big.Int).Set(t.Coeff), isoFree: isoFree, needElem: needElem}
		for _, pc := range comps {
			pt.comps = append(pt.comps, intern(pc))
		}
		plan.terms = append(plan.terms, pt)
	}
	for _, th := range c.Sentences {
		comps, _, _, err := decompose(th)
		if err != nil {
			return nil, err
		}
		// Any element of the disjunct (isolated or not) needs an image,
		// so a non-empty disjunct cannot hold on an empty domain.
		ps := partSentence{needElem: th.A.Size() > 0}
		for _, pc := range comps {
			ps.comps = append(ps.comps, intern(pc))
		}
		plan.sentences = append(plan.sentences, ps)
	}
	return plan, nil
}

// decompose splits a pp-term into the connected components of its
// Gaifman graph, rendered as component queries, plus the isolated-
// variable bookkeeping (liberal count, quantified presence).
func decompose(p pp.PP) ([]partComponent, int, bool, error) {
	a := p.A
	n := a.Size()
	inS := make([]bool, n)
	for _, v := range p.S {
		inS[v] = true
	}
	// Union-find over elements; a tuple links all its positions.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[ry] = rx
		}
	}
	inTuple := make([]bool, n)
	for _, r := range a.Signature().Rels() {
		a.ForEachTuple(r.Name, func(t []int) bool {
			for _, v := range t {
				inTuple[v] = true
				union(t[0], v)
			}
			return true
		})
	}
	isoFree, needElem := 0, false
	groups := make(map[int][]int)
	var roots []int
	for i := 0; i < n; i++ {
		if !inTuple[i] {
			if inS[i] {
				isoFree++
			} else {
				needElem = true
			}
			continue
		}
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	sort.Ints(roots)
	out := make([]partComponent, 0, len(roots))
	for _, r := range roots {
		pc, err := renderComponent(a, groups[r], inS)
		if err != nil {
			return nil, 0, false, err
		}
		out = append(out, pc)
	}
	return out, isoFree, needElem, nil
}

// renderComponent serializes one connected component back into query
// syntax over fresh variable names v<index>.  Components with no
// liberal variable promote their lowest variable into the head
// (satisfiability-by-counting; see partComponent.boolean).
func renderComponent(a *structure.Structure, elems []int, inS []bool) (partComponent, error) {
	inComp := make(map[int]bool, len(elems))
	for _, e := range elems {
		inComp[e] = true
	}
	var head, exist []int
	for _, e := range elems { // elems ascend by construction
		if inS[e] {
			head = append(head, e)
		} else {
			exist = append(exist, e)
		}
	}
	boolean := false
	if len(head) == 0 {
		// Fully quantified: promote the first variable.  The per-part
		// count then equals the number of elements extendable to a
		// homomorphism — positive exactly when the component holds.
		boolean = true
		head, exist = exist[:1], exist[1:]
	}
	v := func(e int) string { return fmt.Sprintf("v%d", e) }
	var atoms []string
	for _, r := range a.Signature().Rels() {
		a.ForEachTuple(r.Name, func(t []int) bool {
			if !inComp[t[0]] {
				return true
			}
			args := make([]string, len(t))
			for i, e := range t {
				args[i] = v(e)
			}
			atoms = append(atoms, fmt.Sprintf("%s(%s)", r.Name, strings.Join(args, ",")))
			return true
		})
	}
	if len(atoms) == 0 {
		return partComponent{}, fmt.Errorf("cluster: component with no atoms")
	}
	headNames := make([]string, len(head))
	for i, e := range head {
		headNames[i] = v(e)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "c(%s) := ", strings.Join(headNames, ","))
	if len(exist) > 0 {
		existNames := make([]string, len(exist))
		for i, e := range exist {
			existNames[i] = v(e)
		}
		fmt.Fprintf(&b, "exists %s . ", strings.Join(existNames, ", "))
	}
	b.WriteString(strings.Join(atoms, " & "))
	return partComponent{query: b.String(), boolean: boolean}, nil
}

// combine reassembles the logical count from the summed per-part
// component counts (compTotals[i] = Σ_parts count of plan.comps[i]) and
// the logical domain size.
func (pl *partPlan) combine(compTotals []*big.Int, totalSize int) *big.Int {
	sizeB := big.NewInt(int64(totalSize))
	for _, s := range pl.sentences {
		holds := !(s.needElem && totalSize == 0)
		for _, ci := range s.comps {
			if compTotals[ci].Sign() == 0 {
				holds = false
				break
			}
		}
		if holds {
			return new(big.Int).Exp(sizeB, big.NewInt(int64(pl.lib)), nil)
		}
	}
	total := new(big.Int)
	tmp := new(big.Int)
	for _, t := range pl.terms {
		if t.needElem && totalSize == 0 {
			continue
		}
		tmp.Exp(sizeB, big.NewInt(int64(t.isoFree)), nil)
		tmp.Mul(tmp, t.coeff)
		for _, ci := range t.comps {
			c := compTotals[ci]
			if pl.comps[ci].boolean {
				if c.Sign() == 0 {
					tmp.SetInt64(0)
					break
				}
				continue // satisfied: factor 1
			}
			tmp.Mul(tmp, c)
			if tmp.Sign() == 0 {
				break
			}
		}
		total.Add(total, tmp)
	}
	return total
}

// componentQueries lists the plan's deduplicated component query texts
// in scatter order (telemetry and tests).
func (pl *partPlan) componentQueries() []string {
	out := make([]string, len(pl.comps))
	for i, c := range pl.comps {
		out[i] = c.query
	}
	return out
}

// partitionElems splits a structure's elements into `parts` groups of
// whole Gaifman components, balancing tuple load greedily (largest
// component first onto the lightest part).  Groups may be empty when
// the structure has fewer components than parts.  Deterministic for a
// given structure.
func partitionElems(b *structure.Structure, parts int) [][]int {
	n := b.Size()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, r := range b.Signature().Rels() {
		b.ForEachTuple(r.Name, func(t []int) bool {
			for _, v := range t {
				rx, ry := find(t[0]), find(v)
				if rx != ry {
					parent[ry] = rx
				}
			}
			return true
		})
	}
	tupleLoad := make([]int, n)
	for _, r := range b.Signature().Rels() {
		b.ForEachTuple(r.Name, func(t []int) bool {
			tupleLoad[find(t[0])]++
			return true
		})
	}
	type comp struct {
		elems  []int
		tuples int
	}
	byRoot := make(map[int]*comp)
	var order []int
	for i := 0; i < n; i++ {
		r := find(i)
		c, ok := byRoot[r]
		if !ok {
			c = &comp{}
			byRoot[r] = c
			order = append(order, r)
		}
		c.elems = append(c.elems, i)
	}
	for _, r := range order {
		byRoot[r].tuples = tupleLoad[r]
	}
	comps := make([]*comp, 0, len(order))
	for _, r := range order {
		comps = append(comps, byRoot[r])
	}
	sort.SliceStable(comps, func(i, j int) bool {
		if comps[i].tuples != comps[j].tuples {
			return comps[i].tuples > comps[j].tuples
		}
		if len(comps[i].elems) != len(comps[j].elems) {
			return len(comps[i].elems) > len(comps[j].elems)
		}
		return comps[i].elems[0] < comps[j].elems[0]
	})
	bins := make([][]int, parts)
	binTuples := make([]int, parts)
	binElems := make([]int, parts)
	for _, c := range comps {
		best := 0
		for i := 1; i < parts; i++ {
			if binTuples[i] < binTuples[best] ||
				(binTuples[i] == binTuples[best] && binElems[i] < binElems[best]) {
				best = i
			}
		}
		bins[best] = append(bins[best], c.elems...)
		binTuples[best] += c.tuples
		binElems[best] += len(c.elems)
	}
	for i := range bins {
		sort.Ints(bins[i])
	}
	return bins
}
