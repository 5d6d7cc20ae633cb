package pp_test

// The reference oracle: the front-end as it was computed before the
// pinned-homomorphism kernel.  Entailment and cores go through the
// materialized augmented structure aug(A,S) of Section 2.1 (one singleton
// relation @lib:a per liberal variable), the core by building an induced
// substructure and a fresh solver per candidate vertex, and canonical keys
// by string colour refinement.  Everything below is written against the
// public API only, so it keeps no production code alive.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
)

const refLibRelPrefix = "@lib:"

// refOver copies s over sig, keeping the relations both signatures know.
func refOver(s *structure.Structure, sig *structure.Signature) *structure.Structure {
	out := structure.New(sig)
	for _, name := range s.ElemNames() {
		_, _ = out.AddElem(name)
	}
	for _, r := range s.Signature().Rels() {
		if !sig.Has(r.Name) {
			continue
		}
		s.ForEachTuple(r.Name, func(t []int) bool {
			_ = out.AddTuple(r.Name, t...)
			return true
		})
	}
	return out
}

// refAug returns aug(A,S) over τ ∪ {R_a | a ∈ S} with R_a = {a}.
func refAug(p pp.PP) *structure.Structure {
	rels := p.A.Signature().Rels()
	for _, v := range p.S {
		rels = append(rels, structure.RelSym{Name: refLibRelPrefix + p.A.ElemName(v), Arity: 1})
	}
	out := refOver(p.A.Database(), structure.MustSignature(rels...))
	for _, v := range p.S {
		_ = out.AddTuple(refLibRelPrefix+p.A.ElemName(v), v)
	}
	return out
}

func refSameLibNames(p, q pp.PP) bool {
	a, b := p.LibNames(), q.LibNames()
	sort.Strings(a)
	sort.Strings(b)
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// refEntails decides p ⊨ q by a homomorphism aug(q) → aug(p).
func refEntails(p, q pp.PP) (bool, error) {
	if !p.A.Signature().Equal(q.A.Signature()) || !refSameLibNames(p, q) {
		return false, fmt.Errorf("reference: incomparable formulas")
	}
	ap := refAug(p)
	return hom.Exists(structure.AtomsOf(refOver(refAug(q), ap.Signature())), ap, hom.Options{}), nil
}

// refCoreOf computes the core of a structure by iterated proper
// retraction: while some homomorphism X → X[X∖{v}] exists, restrict X to
// the image.
func refCoreOf(x *structure.Structure) *structure.Structure {
	for {
		improved := false
		for v := 0; v < x.Size() && !improved; v++ {
			keep := make([]int, 0, x.Size()-1)
			for u := 0; u < x.Size(); u++ {
				if u != v {
					keep = append(keep, u)
				}
			}
			sub := refInduced(x, keep)
			h, ok := hom.Find(structure.AtomsOf(x), sub, hom.Options{})
			if !ok {
				continue
			}
			imgSet := make(map[int]bool)
			for _, b := range h {
				imgSet[b] = true
			}
			img := make([]int, 0, len(imgSet))
			for b := range imgSet {
				img = append(img, b)
			}
			x = refInduced(sub, hom.SortElems(img))
			improved = true
		}
		if !improved {
			return x
		}
	}
}

// refInduced is the substructure of x induced on the ascending elements
// keep.
func refInduced(x *structure.Structure, keep []int) *structure.Structure {
	out := structure.New(x.Signature())
	old2new := make(map[int]int, len(keep))
	for _, v := range keep {
		old2new[v], _ = out.AddElem(x.ElemName(v))
	}
	for _, r := range x.Signature().Rels() {
		x.ForEachTuple(r.Name, func(t []int) bool {
			nt := make([]int, len(t))
			for i, v := range t {
				w, ok := old2new[v]
				if !ok {
					return true
				}
				nt[i] = w
			}
			_ = out.AddTuple(r.Name, nt...)
			return true
		})
	}
	return out
}

// refCore is the core of the augmented structure, re-expressed over the
// original vocabulary.
func refCore(p pp.PP) (pp.PP, error) {
	plain := refOver(refCoreOf(refAug(p)), p.A.Signature())
	var s []int
	for _, v := range p.S {
		idx := plain.ElemIndex(p.A.ElemName(v))
		if idx < 0 {
			return pp.PP{}, fmt.Errorf("reference: core lost liberal variable %s", p.A.ElemName(v))
		}
		s = append(s, idx)
	}
	return pp.New(structure.AtomsOf(plain), s)
}

// refMinimize is eptrans.Minimize over refEntails; it returns the indices
// of the surviving disjuncts.
func refMinimize(pps []pp.PP) ([]int, error) {
	n := len(pps)
	drop := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n && !drop[i]; j++ {
			if i == j || drop[j] {
				continue
			}
			iEntailsJ, err := refEntails(pps[i], pps[j])
			if err != nil {
				return nil, err
			}
			if !iEntailsJ {
				continue
			}
			jEntailsI, err := refEntails(pps[j], pps[i])
			if err != nil {
				return nil, err
			}
			if !jEntailsI || j < i {
				drop[i] = true
			}
		}
	}
	var out []int
	for i := range pps {
		if !drop[i] {
			out = append(out, i)
		}
	}
	return out, nil
}

// refCanonicalKey is the string-signature individualization–refinement
// certificate.
func refCanonicalKey(p pp.PP) (string, error) {
	n := p.A.Size()
	inS := make([]bool, n)
	for _, v := range p.S {
		inS[v] = true
	}
	type occurrence struct{ rel, tuple, pos int }
	rels := p.A.Signature().Rels()
	tuples := make([][][]int, len(rels))
	occ := make([][]occurrence, n)
	db := p.A.Database()
	for ri, r := range rels {
		db.ForEachTuple(r.Name, func(t []int) bool {
			tuples[ri] = append(tuples[ri], append([]int(nil), t...))
			return true
		})
		for ti, t := range tuples[ri] {
			for pos, v := range t {
				occ[v] = append(occ[v], occurrence{rel: ri, tuple: ti, pos: pos})
			}
		}
	}
	refine := func(color []int) []int {
		cur := append([]int(nil), color...)
		for round := 0; round < n+2; round++ {
			sigs := make([]string, n)
			for v := 0; v < n; v++ {
				parts := make([]string, 0, len(occ[v])+1)
				for _, o := range occ[v] {
					t := tuples[o.rel][o.tuple]
					cols := make([]string, len(t))
					for i, u := range t {
						cols[i] = fmt.Sprint(cur[u])
					}
					parts = append(parts, fmt.Sprintf("%d:%d:%s", o.rel, o.pos, strings.Join(cols, ",")))
				}
				sort.Strings(parts)
				sigs[v] = fmt.Sprintf("%d|%s", cur[v], strings.Join(parts, ";"))
			}
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(i, j int) bool { return sigs[order[i]] < sigs[order[j]] })
			next := make([]int, n)
			c := 0
			for i, v := range order {
				if i > 0 && sigs[v] != sigs[order[i-1]] {
					c++
				}
				next[v] = c
			}
			same := true
			for v := 0; v < n; v++ {
				if next[v] != cur[v] {
					same = false
					break
				}
			}
			cur = next
			if same {
				break
			}
		}
		return cur
	}
	certificate := func(label []int) string {
		var b strings.Builder
		for ri, r := range rels {
			fmt.Fprintf(&b, "%s/", r.Name)
			lines := make([]string, 0, len(tuples[ri]))
			for _, t := range tuples[ri] {
				parts := make([]string, len(t))
				for i, v := range t {
					parts[i] = fmt.Sprint(label[v])
				}
				lines = append(lines, strings.Join(parts, ","))
			}
			sort.Strings(lines)
			b.WriteString(strings.Join(lines, " "))
			b.WriteByte(';')
		}
		var libLabels []int
		for _, v := range p.S {
			libLabels = append(libLabels, label[v])
		}
		sort.Ints(libLabels)
		fmt.Fprintf(&b, "S=%v", libLabels)
		return b.String()
	}
	isDiscrete := func(color []int) bool {
		seen := make(map[int]bool, n)
		for _, c := range color {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	steps := 0
	var best string
	var explore func(color []int) error
	explore = func(color []int) error {
		if steps++; steps > 1<<16 {
			return fmt.Errorf("reference: canonical labeling budget exceeded")
		}
		color = refine(color)
		if isDiscrete(color) {
			if cert := certificate(color); best == "" || cert < best {
				best = cert
			}
			return nil
		}
		counts := map[int][]int{}
		for v, c := range color {
			counts[c] = append(counts[c], v)
		}
		var cols []int
		for c := range counts {
			cols = append(cols, c)
		}
		sort.Ints(cols)
		var cell []int
		for _, c := range cols {
			if len(counts[c]) > 1 {
				cell = counts[c]
				break
			}
		}
		for _, v := range cell {
			next := append([]int(nil), color...)
			for u := 0; u < n; u++ {
				next[u] = 2 * next[u]
			}
			next[v]--
			if err := explore(next); err != nil {
				return err
			}
		}
		return nil
	}
	initial := make([]int, n)
	for v := 0; v < n; v++ {
		if !inS[v] {
			initial[v] = 1
		}
	}
	if err := explore(initial); err != nil {
		return "", err
	}
	return best, nil
}
