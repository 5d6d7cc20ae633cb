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
// across draws, and it fixes its first liberal variable once per value:
// the domains propagated after fixing proj[0] to its k-th value (or the
// fact that propagation wiped one out) are kept in a memo that the first
// draw picking k fills and every later one copies.  Arc consistency has
// a unique fixpoint, so a memoized draw is the draw itself.  The memo
// exists when every constraint on proj[0] revises on support rows
// (structure.BitRowsFit), which bounds it by nA/2 times the rows the
// solver already holds.
//
// Draws write the Sampler's scratch domains and memo, so a Sampler is
// NOT safe for concurrent use: one goroutine draws from it at a time.
// It may pass from goroutine to goroutine (through a sync.Pool, say) and
// serve any number of estimates, warm memo included, as long as B does
// not change: it reads B's relations directly, and its memo holds
// domains propagated against them.  A memo entry is the draw itself, so
// the draws of a given RNG stream do not depend on what the sampler
// drew before.
type Sampler struct {
	s    *solver
	proj []int
	zero bool
	// total: proj covers every element of A, so a draw that survives
	// propagation is a homomorphism (all domains are arc-consistent
	// singletons) and needs no completion search.
	total bool

	// dom0 holds the initially propagated domains and dom a draw's
	// scratch copy, each carved out of the flat window flat0 / flat of
	// one slab.
	dom0, dom   []bitset
	flat0, flat []uint64
	// memo[k*len(flat):] holds flat after fixing proj[0] to its k-th
	// value and propagating, valid once state[k] is memoLive; state[k]
	// is memoDead when that propagation wiped out a domain.  nil: no
	// memo.
	memo  []uint64
	state []memoState
}

type memoState uint8

const (
	memoUnfilled memoState = iota
	memoLive
	memoDead
)

// NewSampler prepares a sampler for homomorphisms A → B projected onto
// the A-elements proj.  Construction runs the initial propagation once;
// if it already wipes out a domain the count is exactly zero and
// ExactZero reports true.
func NewSampler(A *structure.Atoms, B *structure.Structure, proj []int, opts Options) *Sampler {
	return newSampler(newSolver(A, B, opts), proj)
}

func newSampler(s *solver, proj []int) *Sampler {
	sp := &Sampler{s: s, proj: append([]int(nil), proj...)}
	dom, ok := s.initialDomains()
	if !ok {
		sp.zero = true
		return sp
	}
	liberal := make([]bool, s.nA)
	for _, v := range sp.proj {
		liberal[v] = true
	}
	sp.total = true
	for _, l := range liberal {
		sp.total = sp.total && l
	}
	n, slots := s.nA*s.words, 0
	if sp.memoizes() {
		slots = bitvec.Count(dom[sp.proj[0]])
	}
	slab := make([]uint64, (2+slots)*n)
	sp.flat0, sp.flat = slab[:n:n], slab[n:2*n:2*n]
	sp.dom0 = carveBitsets(make([]bitset, s.nA), sp.flat0, s.words)
	sp.dom = carveBitsets(make([]bitset, s.nA), sp.flat, s.words)
	for v := range dom {
		copy(sp.dom0[v], dom[v])
	}
	if slots > 0 {
		sp.memo, sp.state = slab[2*n:], make([]memoState, slots)
	}
	return sp
}

// memoizes reports whether the first fixing is worth a memo: it
// propagates (some draw fixes a later variable after it) and every
// constraint on proj[0] — there is at least one — has support rows.
func (sp *Sampler) memoizes() bool {
	if len(sp.proj) == 0 || (sp.total && len(sp.proj) == 1) {
		return false
	}
	cons := sp.s.consOf[sp.proj[0]]
	for _, ci := range cons {
		if sp.s.cons[ci].fwd == nil {
			return false
		}
	}
	return len(cons) > 0
}

// ExactZero reports whether the initial propagation proved |φ(B)| = 0,
// in which case Sample always returns 0 and the zero is exact.
func (sp *Sampler) ExactZero() bool { return sp.zero }

// Sample performs one draw and returns its importance weight: the
// product of the domain sizes seen while fixing the liberal variables if
// the drawn partial assignment extends to a full homomorphism, and 0
// otherwise (a dead branch).  The first fixing is served from the memo
// once its value has been drawn, and a total sampler does not propagate
// after its last fixing: GAC has then already run to its fixpoint with
// every other variable a singleton, so every value left extends.  Sample
// allocates nothing, except for the completion search's pooled domain
// copies in its first draws.
func (sp *Sampler) Sample(rng *rand.Rand) float64 {
	if sp.zero {
		return 0
	}
	copy(sp.flat, sp.flat0)
	w := 1.0
	for i, v := range sp.proj {
		c := bitvec.Count(sp.dom[v])
		if c == 0 {
			return 0
		}
		k := rng.Intn(c)
		w *= float64(c)
		if sp.total && i == len(sp.proj)-1 {
			return w
		}
		if !sp.fix(i, v, k) {
			return 0
		}
	}
	if !sp.total && !sp.s.search(sp.dom, firstSolution) {
		return 0
	}
	return w
}

// fix fixes the i-th liberal variable v to the k-th value of its domain
// and propagates, reporting whether every domain survived; the first
// fixing reads and fills the memo.
func (sp *Sampler) fix(i, v, k int) bool {
	var slot []uint64
	if i == 0 && sp.memo != nil {
		slot = sp.memo[k*len(sp.flat) : (k+1)*len(sp.flat)]
		switch sp.state[k] {
		case memoLive:
			copy(sp.flat, slot)
			return true
		case memoDead:
			return false
		}
	}
	dom := sp.dom
	pick := dom[v].nth(k)
	dom[v].zero()
	dom[v].set(pick)
	ok := sp.s.propagate(dom, v)
	if slot != nil {
		sp.state[k] = memoDead
		if ok {
			copy(slot, sp.flat)
			sp.state[k] = memoLive
		}
	}
	return ok
}
