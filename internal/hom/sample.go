package hom

import (
	"math/rand"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/structure"
)

// maxMemoDepth is the longest prefix of liberal variables a Sampler's
// memo fixes, and maxMemoWords caps the slab of a memo deeper than one
// variable: 2^14 words (128 KiB) hold 4 096 entries of a 4-variable
// formula over a one-word universe, so a deep prefill costs at most a
// few thousand propagations, once per sampler.
const (
	maxMemoDepth = 2
	maxMemoWords = 1 << 14
)

// Sampler draws Horvitz–Thompson samples of the answer set φ(B) of a
// pp-formula with liberal variables proj.  A draw fixes the liberal
// variables one at a time and propagates GAC after each fixing; the
// product of the inverse draw probabilities is its importance weight,
// and the draw checks that the partial assignment extends to a full
// homomorphism.  Arc-consistency propagation only removes values with
// no supporting tuple, so every answer survives every propagation step
// and is reached with positive probability: the weighted indicator is
// an unbiased estimator of |φ(B)|, E[Sample] = |φ(B)| exactly.
//
// The first d = depth liberal variables (d ≤ maxMemoDepth) are fixed
// once, at construction: the memo holds, for every combination of
// their values that propagation does not wipe out, the domains
// propagated after fixing them, weighted by the size of the next
// domain, |dom(proj[d])|.  With S the sum of the weights, a draw picks
// an entry with probability weight/S and a value of proj[d] uniformly —
// together, one uniform pick among the S (entry, value) pairs — then
// fixes the later variables uniformly and weighs S·∏_{i>d} cᵢ, cᵢ the
// size of proj[i]'s domain when it is fixed.  A pair's probability is
// 1/S whatever its entry, so E[Sample] = Σ over entries of their answer
// counts = |φ(B)|.  Drawing the prefix in proportion to what it leaves
// evens the weights out (free K4 and K5 on the approx-hard graphs: a
// weight CV² of 0.2–0.9 where uniform first fixings give 0.6–1.8), so
// an (ε, δ) target costs fewer draws; and a draw skips the memoized
// propagations.  When no entry survives, the prefill has proved the
// count zero and ExactZero reports it.
//
// The memo is as deep as three rules allow.  Each memoized variable
// has a constraint, and all of its constraints have the shape that
// revises on support rows (structure.BitRowsFit), which bounds a
// one-variable memo by nA/2 times the rows the solver holds; a deeper
// memo's slab stays within maxMemoWords; and a draw keeps a liberal
// variable to draw after the memo — two for a total sampler, whose
// last draw always extends, so a memo one deeper would weigh every draw
// exactly |φ(B)| and be an exact count by enumeration.  Free K3 thus
// memoizes one variable, K4 and K5 two.  With d = 0 the memo is the
// initial domains and a draw is the plain sequential draw.
//
// Draws write the Sampler's scratch domains, so a Sampler is NOT safe
// for concurrent use: one goroutine draws from it at a time.  It may
// pass from goroutine to goroutine (through a sync.Pool, say) and serve
// any number of estimates as long as B does not change: it reads B's
// relations directly, and its memo holds domains propagated against
// them.  The memo is read-only after construction, so the draws of a
// given RNG stream do not depend on what the sampler drew before.
type Sampler struct {
	s    *solver
	proj []int
	zero bool
	// total: proj covers every element of A, so a draw that survives
	// propagation is a homomorphism (all domains are arc-consistent
	// singletons) and needs no completion search.
	total bool

	// depth is the number of leading liberal variables the memo fixes.
	// memo[j*len(flat):] holds the domains after fixing proj[:depth] to
	// the j-th live combination of values (in lexicographic order) and
	// propagating; cum[j] is the summed weight of entries 0..j, so the
	// last entry of cum is S.  dom is a draw's scratch copy, carved out
	// of flat.
	depth int
	memo  []uint64
	cum   []int
	dom   []bitset
	flat  []uint64
}

// NewSampler prepares a sampler for homomorphisms A → B projected onto
// the A-elements proj.  Construction runs the initial propagation and
// prefills the memo; if either proves |φ(B)| = 0, ExactZero reports
// true.
func NewSampler(A *structure.Atoms, B *structure.Structure, proj []int, opts Options) *Sampler {
	return newSampler(newSolver(A, B, opts), proj)
}

func newSampler(s *solver, proj []int) *Sampler {
	return newSamplerDepth(s, proj, maxMemoDepth)
}

// newSamplerDepth is newSampler with the memo no deeper than maxDepth.
func newSamplerDepth(s *solver, proj []int, maxDepth int) *Sampler {
	sp := &Sampler{s: s, proj: append([]int(nil), proj...)}
	dom, ok := s.initialDomains()
	// A domain that propagation never touched (a variable without
	// constraints) may be empty from the start: then nothing extends.
	if !ok || slices.ContainsFunc(dom, bitset.empty) {
		sp.zero = true
		return sp
	}
	liberal := make([]bool, s.nA)
	for _, v := range sp.proj {
		liberal[v] = true
	}
	sp.total = !slices.Contains(liberal, false)
	n := s.nA * s.words
	sp.flat = make([]uint64, n)
	sp.dom = carveBitsets(make([]bitset, s.nA), sp.flat, s.words)
	for v := range dom {
		copy(sp.dom[v], dom[v])
	}
	// Depth 0: the initial domains are the memo's one entry.
	sp.memo, sp.cum = slices.Clone(sp.flat), []int{sp.weight(sp.dom, 0)}
	limit := len(sp.proj) - 1
	if sp.total {
		limit--
	}
	for d := 0; d < min(maxDepth, limit) && sp.memoizable(sp.proj[d]); d++ {
		if d > 0 && sp.cum[len(sp.cum)-1]*n > maxMemoWords {
			break
		}
		sp.deepen()
		if len(sp.cum) == 0 {
			sp.zero, sp.memo, sp.cum = true, nil, nil
			return sp
		}
	}
	return sp
}

// weight returns the size of proj[d]'s domain in dom, 1 past the last
// liberal variable.
func (sp *Sampler) weight(dom []bitset, d int) int {
	if d == len(sp.proj) {
		return 1
	}
	return bitvec.Count(dom[sp.proj[d]])
}

// memoizable reports whether v may be fixed in the memo: it has a
// constraint, and every constraint on it is binary on two distinct
// variables over a relation dense enough for support rows.  The rule
// reads the relation's shape, not the kernel that revises it, so every
// kernel builds the same memo.
func (sp *Sampler) memoizable(v int) bool {
	s := sp.s
	for _, ci := range s.consOf[v] {
		c := &s.cons[ci]
		tuples := len(c.brows) / 2
		if c.brel != nil {
			tuples = c.brel.Len()
		}
		if c.partner(v) < 0 || !structure.BitRowsFit(2, s.nB, tuples) {
			return false
		}
	}
	return len(s.consOf[v]) > 0
}

// deepen memoizes one more liberal variable: it replaces each entry by
// its children, fixing proj[depth] to each value of its domain and
// propagating, and drops the children propagation wipes out.  An entry's
// weight is its number of children, so the new slab holds at most S
// entries.
func (sp *Sampler) deepen() {
	n, d := len(sp.flat), sp.depth
	v := sp.proj[d]
	memo := make([]uint64, sp.cum[len(sp.cum)-1]*n)
	cum := make([]int, 0, sp.cum[len(sp.cum)-1])
	view := make([]bitset, sp.s.nA)
	live, sum := 0, 0
	for e := range sp.cum {
		parent := sp.memo[e*n : (e+1)*n]
		for b := range bitvec.Each(parent[v*sp.s.words : (v+1)*sp.s.words]) {
			slot := memo[live*n : (live+1)*n]
			copy(slot, parent)
			carveBitsets(view, slot, sp.s.words)
			if !sp.s.fix(view, v, b) {
				continue
			}
			live++
			sum += sp.weight(view, d+1)
			cum = append(cum, sum)
		}
	}
	sp.memo, sp.cum, sp.depth = memo[:live*n:live*n], cum, d+1
}

// ExactZero reports whether construction proved |φ(B)| = 0 — the
// initial propagation or every memo entry wiped out a domain — in which
// case Sample always returns 0 and the zero is exact.
func (sp *Sampler) ExactZero() bool { return sp.zero }

// Sample performs one draw and returns its importance weight:
// S·∏_{i>depth} cᵢ if the drawn partial assignment extends to a full
// homomorphism, and 0 otherwise (a dead branch).  One uniform pick among
// the S memoized (entry, value) pairs fixes proj[:depth+1]; a total
// sampler does not propagate after its last fixing: GAC has then
// already run to its fixpoint with every other variable a singleton, so
// every value left extends.  Sample allocates nothing, except for the
// completion search's pooled domain copies in its first draws.
func (sp *Sampler) Sample(rng *rand.Rand) float64 {
	if sp.zero {
		return 0
	}
	sum := sp.cum[len(sp.cum)-1]
	r := rng.Intn(sum)
	e, _ := slices.BinarySearch(sp.cum, r+1)
	k := r
	if e > 0 {
		k -= sp.cum[e-1]
	}
	n := len(sp.flat)
	copy(sp.flat, sp.memo[e*n:(e+1)*n])
	w := float64(sum)
	for i := sp.depth; i < len(sp.proj); i++ {
		v := sp.proj[i]
		if i > sp.depth {
			// Propagation that succeeds leaves no domain empty.
			c := bitvec.Count(sp.dom[v])
			k = rng.Intn(c)
			w *= float64(c)
		}
		if sp.total && i == len(sp.proj)-1 {
			return w
		}
		if !sp.s.fix(sp.dom, v, sp.dom[v].nth(k)) {
			return 0
		}
	}
	if !sp.total && !sp.s.search(sp.dom, firstSolution) {
		return 0
	}
	return w
}
