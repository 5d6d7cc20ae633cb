package hom

import (
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/structure"
)

// Sampler draws Horvitz–Thompson samples of the answer set φ(B) of a
// pp-formula with liberal variables proj: each draw fixes the liberal
// variables one at a time to a uniformly random member of their current
// GAC-propagated domain, accumulating the product of the domain sizes as
// the importance weight, and then checks that the partial assignment
// extends to a full homomorphism.  Because arc-consistency propagation
// only removes values with no supporting tuple, every answer survives
// every propagation step, so the weighted indicator is an unbiased
// estimator of |φ(B)|: E[Sample] = |φ(B)| exactly.
//
// A Sampler amortizes solver construction and the initial propagation
// across draws; it reuses the solver's pooled domain copies and is
// therefore NOT safe for concurrent use.  Create one Sampler per
// goroutine.
type Sampler struct {
	s    *solver
	proj []int
	dom0 []bitset
	zero bool
	// total: proj covers every element of A and there is no injectivity
	// group, so a draw that survives propagation is a homomorphism (all
	// domains are arc-consistent singletons) and needs no completion
	// search.
	total bool
}

// NewSampler prepares a sampler for homomorphisms A → B projected onto
// the A-elements proj.  Construction runs the initial propagation once;
// if it already wipes out a domain the count is exactly zero and
// ExactZero reports true.
func NewSampler(A, B *structure.Structure, proj []int, opts Options) *Sampler {
	return newSampler(newSolver(A, B, opts), proj)
}

func newSampler(s *solver, proj []int) *Sampler {
	sp := &Sampler{s: s, proj: append([]int(nil), proj...)}
	dom, ok := s.initialDomains()
	if !ok {
		sp.zero = true
		return sp
	}
	sp.dom0 = dom
	liberal := make([]bool, s.nA)
	for _, v := range sp.proj {
		liberal[v] = true
	}
	sp.total = s.allDiff == nil
	for _, l := range liberal {
		sp.total = sp.total && l
	}
	return sp
}

// ExactZero reports whether the initial propagation proved |φ(B)| = 0,
// in which case Sample always returns 0 and the zero is exact.
func (sp *Sampler) ExactZero() bool { return sp.zero }

// Sample performs one draw and returns its importance weight: the
// product of the domain sizes seen while fixing the liberal variables if
// the drawn partial assignment extends to a full homomorphism, and 0
// otherwise (a dead branch).  The expectation over draws equals |φ(B)|.
// After the first draw it allocates nothing.
func (sp *Sampler) Sample(rng *rand.Rand) float64 {
	if sp.zero {
		return 0
	}
	dom := sp.s.cloneDoms(sp.dom0)
	w := sp.draw(dom, rng)
	sp.s.releaseDoms(dom)
	return w
}

// draw is one Sample on the scratch domains dom.
func (sp *Sampler) draw(dom []bitset, rng *rand.Rand) float64 {
	w := 1.0
	for _, v := range sp.proj {
		c := bitvec.Count(dom[v])
		if c == 0 {
			return 0
		}
		pick := dom[v].nth(rng.Intn(c))
		w *= float64(c)
		dom[v].zero()
		dom[v].set(pick)
		if !sp.s.propagate(dom, v) {
			return 0
		}
	}
	if !sp.total && !sp.s.search(dom, firstSolution) {
		return 0
	}
	return w
}
