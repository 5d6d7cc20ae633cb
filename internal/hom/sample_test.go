package hom

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/structure"
)

// Sampler suite on the kernel differential's inputs (randomKernelCase,
// and memoKernelCase for the shapes a memo fixes two deep):
// the prefilled memo against a memo-less solver, the depth-0 sampler
// against the plain sequential draw, and E[Sample] computed exactly
// over the whole draw tree against the brute-force projected count.

// splitmixSource is a rand.Source whose Seed costs nothing, so every
// draw can start from a seed of its own.
type splitmixSource uint64

func (s *splitmixSource) Seed(seed int64) { *s = splitmixSource(seed) }

func (s *splitmixSource) Int63() int64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// scriptSource replays a draw's picks: while picks last, rand.Intn(n)
// returns the next one (math/rand reads Intn(n), n < 2³¹, from the high
// 31 bits of Int63, and keeps a pick below n as it is).  used counts
// the values read, script or not.
type scriptSource struct {
	picks []int
	used  int
}

func (s *scriptSource) Seed(int64) {}

func (s *scriptSource) Int63() int64 {
	k := 0
	if s.used < len(s.picks) {
		k = s.picks[s.used]
	}
	s.used++
	return int64(k) << 32
}

// fixTo fixes v to b in dom and propagates: the sampler's step, spelled
// out so the references below do not call the code they check.
func fixTo(s *solver, dom []bitset, v, b int) bool {
	dom[v].zero()
	dom[v].set(b)
	return s.propagate(dom, v)
}

// hasRows reports whether every constraint on v — there is one at
// least — revises on support rows in s.
func hasRows(s *solver, v int) bool {
	return len(s.consOf[v]) > 0 && !slices.ContainsFunc(s.consOf[v], func(ci int) bool { return s.cons[ci].fwd == nil })
}

// memoKernelCase draws a case of the shape a memo fixes two deep: a
// pattern of 3–4 elements joined by E atoms on random pairs (at times
// with a loop or a T atom), over a target whose E is dense, with loops,
// and whose T is as randomKernelCase draws it, pinned / restricted as
// there.
func memoKernelCase(rng *rand.Rand, nB int) kernelCase {
	a, b := structure.New(kernelSig), structure.New(kernelSig)
	nA := 3 + rng.Intn(2)
	for i := 0; i < nA; i++ {
		a.FreshElem("x")
	}
	for i := 0; i < nB; i++ {
		b.FreshElem("b")
	}
	for x := 0; x < nA; x++ {
		for y := x + 1; y < nA; y++ {
			switch rng.Intn(3) {
			case 0:
				_ = a.AddTuple("E", x, y)
			case 1:
				_ = a.AddTuple("E", y, x)
			}
		}
	}
	if rng.Intn(4) == 0 {
		x := rng.Intn(nA)
		_ = a.AddTuple("E", x, x)
	}
	if rng.Intn(4) == 0 {
		_ = a.AddTuple("T", rng.Intn(nA), rng.Intn(nA), rng.Intn(nA))
	}
	for i, n := 0, nB+rng.Intn(2*nB*((nB+63)/64)+1); i < n; i++ {
		u, v := rng.Intn(nB), rng.Intn(nB)
		if rng.Intn(8) == 0 {
			v = u
		}
		_ = b.AddTuple("E", u, v)
	}
	for i, n := 0, 1+rng.Intn(3*nB); i < n; i++ {
		_ = b.AddTuple("T", rng.Intn(nB), rng.Intn(nB), rng.Intn(nB))
	}
	c := kernelCase{A: structure.AtomsOf(a), B: b}
	if rng.Intn(3) == 0 {
		c.opts.Pin = map[int]int{rng.Intn(nA): rng.Intn(nB)}
	}
	if rng.Intn(3) == 0 {
		allowed := make([]int, 1+rng.Intn(nB))
		for i := range allowed {
			allowed[i] = rng.Intn(nB)
		}
		c.opts.Restrict = map[int][]int{rng.Intn(nA): allowed}
	}
	return c
}

// samplerCase draws the sampler suite's i-th case: the kernel
// differential's on even i, memoKernelCase's on odd.
func samplerCase(rng *rand.Rand, nB, i int) kernelCase {
	if i%2 == 0 {
		return randomKernelCase(rng, nB)
	}
	return memoKernelCase(rng, nB)
}

// samplerProj draws a projection of c's elements, with the elements
// whose constraints all revise on support rows first: the memo fixes a
// prefix of those only.
func samplerProj(rng *rand.Rand, c kernelCase) []int {
	s := newSolver(c.A, c.B, c.opts)
	proj := rng.Perm(c.A.Size())[:1+rng.Intn(c.A.Size())]
	slices.SortStableFunc(proj, func(x, y int) int {
		hx, hy := hasRows(s, x), hasRows(s, y)
		switch {
		case hx && !hy:
			return -1
		case hy && !hx:
			return 1
		}
		return 0
	})
	return proj
}

// plainDraws is the memo-less sequential draw on s: from the initial
// domains, each liberal variable in turn takes a uniform member of its
// propagated domain, the weight is the product of the domain sizes, and
// a partial projection ends in a completion search.
func plainDraws(s *solver, proj []int) func(*rand.Rand) float64 {
	dom0, ok := s.initialDomains()
	total := len(proj) == s.nA
	return func(rng *rand.Rand) float64 {
		if !ok {
			return 0
		}
		dom := copyDoms(dom0)
		w := 1.0
		for i, v := range proj {
			c := bitvec.Count(dom[v])
			if c == 0 {
				return 0
			}
			k := rng.Intn(c)
			w *= float64(c)
			if total && i == len(proj)-1 {
				return w
			}
			if !fixTo(s, dom, v, dom[v].nth(k)) {
				return 0
			}
		}
		if !total && !s.search(dom, firstSolution) {
			return 0
		}
		return w
	}
}

// wantMemo builds the depth-d memo of proj by hand on a memo-less
// solver: every combination of values of proj[:d], fixed in order from
// the initial domains and propagated, in lexicographic order.  It
// returns the live entries' domains back to back, their cumulative
// weights |dom(proj[d])|, and the number of combinations propagation
// wiped out; ok is false when the initial propagation already did.
func wantMemo(c kernelCase, proj []int, d int) (memo []uint64, cum []int, dead int, ok bool) {
	s := newSolver(c.A, c.B, c.opts)
	dom0, ok := s.initialDomains()
	if !ok {
		return nil, nil, 0, false
	}
	sum := 0
	var rec func(dom []bitset, i int)
	rec = func(dom []bitset, i int) {
		if i == d {
			for _, set := range dom {
				memo = append(memo, set...)
			}
			sum += bitvec.Count(dom[proj[d]])
			cum = append(cum, sum)
			return
		}
		for b := range bitvec.Each(dom[proj[i]]) {
			nd := copyDoms(dom)
			if fixTo(s, nd, proj[i], b) {
				rec(nd, i+1)
			} else {
				dead++
			}
		}
	}
	rec(copyDoms(dom0), 0)
	return memo, cum, dead, true
}

// TestSamplerMemoMatchesPlainDraws checks the prefilled memo on the
// differential suite's inputs, with partial projections (the completion
// search), pins / restricts and memo depths 0, 1 and 2: every entry,
// live or dead, is what fixing and propagating its prefix on a
// memo-less solver gives (a dead prefix has no entry, and a memo with
// none left is an exact zero); the depth is the deepest the documented
// rules allow; and a depth-0 sampler draws exactly what the plain
// sequential draw draws on the same seeds.
func TestSamplerMemoMatchesPlainDraws(t *testing.T) {
	var depths [maxMemoDepth + 1]int
	var zeros, partial, pinned, entries, deadEntries, live int
	for _, nB := range kernelUniverses {
		rng := rand.New(rand.NewSource(int64(4000 + nB)))
		for iter := 0; iter < 300; iter++ {
			c := samplerCase(rng, nB, iter)
			proj := samplerProj(rng, c)
			for maxDepth := 0; maxDepth <= maxMemoDepth; maxDepth++ {
				sp := newSamplerDepth(newSolver(c.A, c.B, c.opts), proj, maxDepth)
				d := sp.depth
				memo, cum, dead, ok := wantMemo(c, proj, d)
				if sp.ExactZero() != (!ok || len(cum) == 0) {
					t.Fatalf("nB=%d iter %d depth %d: exact zero %v, but the hand-built memo has %d live entries (initial propagation ok %v)", nB, iter, d, sp.ExactZero(), len(cum), ok)
				}
				if sp.ExactZero() {
					zeros++
					continue
				}
				if !slices.Equal(sp.memo, memo) || !slices.Equal(sp.cum, cum) {
					t.Fatalf("nB=%d iter %d proj %v depth %d: memo differs from fixing and propagating each prefix (%d vs %d entries)", nB, iter, proj, d, len(sp.cum), len(cum))
				}
				limit := len(proj) - 1
				if len(proj) == c.A.Size() {
					limit--
				}
				for i := 0; i < d; i++ {
					if !hasRows(sp.s, proj[i]) {
						t.Fatalf("nB=%d iter %d: memoized element %d has a constraint without support rows", nB, iter, proj[i])
					}
				}
				if d > min(maxDepth, max(limit, 0)) {
					t.Fatalf("nB=%d iter %d: depth %d past its limit (max %d, %d liberal of %d)", nB, iter, d, maxDepth, len(proj), c.A.Size())
				}
				if d < min(maxDepth, limit) && hasRows(sp.s, proj[d]) && (d == 0 || cum[len(cum)-1]*len(sp.flat) <= maxMemoWords) {
					t.Fatalf("nB=%d iter %d: memo stopped at depth %d though depth %d is allowed", nB, iter, d, d+1)
				}
				depths[d]++
				entries += len(cum)
				deadEntries += dead
				if len(proj) < c.A.Size() {
					partial++
				}
				if c.opts.Pin != nil || c.opts.Restrict != nil {
					pinned++
				}
				if d > 0 {
					continue
				}
				plain := plainDraws(newSolver(c.A, c.B, c.opts), proj)
				var sSp, sPlain splitmixSource
				rs, rp := rand.New(&sSp), rand.New(&sPlain)
				for k := int64(0); k < 30; k++ {
					seed := int64(nB)<<32 | int64(iter)<<10 | int64(maxDepth)<<8 | k
					rs.Seed(seed)
					rp.Seed(seed)
					ws, wp := sp.Sample(rs), plain(rp)
					if ws != wp {
						t.Fatalf("nB=%d iter %d draw %d: depth-0 sampler weighs %v, the plain draw %v", nB, iter, k, ws, wp)
					}
					if ws != 0 {
						live++
					}
				}
			}
		}
	}
	t.Logf("samplers by depth %v, %d exact zeros (%d partial, %d pinned/restricted); %d memo entries, %d dead prefixes; %d live depth-0 draws",
		depths, zeros, partial, pinned, entries, deadEntries, live)
	if depths[0] < 1000 || depths[1] < 400 || depths[2] < 100 || partial < 300 || pinned < 300 {
		t.Fatalf("generator is lopsided: samplers by depth %v, %d partial, %d pinned/restricted", depths, partial, pinned)
	}
	if deadEntries < 1000 || live < 10000 {
		t.Fatalf("the comparison is vacuous: %d dead prefixes, %d live depth-0 draws", deadEntries, live)
	}
}

// drawTreeMean computes E[sp.Sample] exactly by walking the whole draw
// tree of sp's algorithm on a memo-less solver: each of the S first
// picks (probability 1/S) names a memo entry and a member of
// proj[depth]'s domain there; each later liberal variable takes each
// member of its propagated domain with equal probability; a branch ends
// where propagation wipes out or the liberal variables run out.  A
// branch's weight is what sp.Sample returns when scriptSource replays
// its picks, and Sample must read exactly those picks.  It returns
// E[Sample] and the number of branches with a non-zero weight.
func drawTreeMean(t *testing.T, c kernelCase, sp *Sampler) (*big.Rat, int) {
	mean, live := new(big.Rat), 0
	if sp.ExactZero() {
		return mean, 0
	}
	memo, cum, _, _ := wantMemo(c, sp.proj, sp.depth)
	s := newSolver(c.A, c.B, c.opts)
	n, d := s.nA*s.words, sp.depth
	src := &scriptSource{}
	rng := rand.New(src)
	leaf := func(picks []int, denom int64) {
		src.picks, src.used = picks, 0
		w := sp.Sample(rng)
		if src.used != len(picks) {
			t.Fatalf("proj %v depth %d picks %v: Sample read %d values", sp.proj, d, picks, src.used)
		}
		if w != float64(int64(w)) {
			t.Fatalf("proj %v depth %d picks %v: weight %v is not an integer", sp.proj, d, picks, w)
		}
		if w != 0 {
			live++
		}
		mean.Add(mean, big.NewRat(int64(w), denom))
	}
	var walk func(dom []bitset, i int, picks []int, denom int64)
	walk = func(dom []bitset, i int, picks []int, denom int64) {
		if i == len(sp.proj) {
			leaf(picks, denom)
			return
		}
		v := sp.proj[i]
		cv := bitvec.Count(dom[v])
		for k := 0; k < cv; k++ {
			nd := copyDoms(dom)
			p := append(slices.Clip(picks), k)
			if fixTo(s, nd, v, dom[v].nth(k)) {
				walk(nd, i+1, p, denom*int64(cv))
			} else {
				leaf(p, denom*int64(cv))
			}
		}
	}
	total := int64(cum[len(cum)-1])
	for r := 0; r < int(total); r++ {
		e, _ := slices.BinarySearch(cum, r+1)
		k := r
		if e > 0 {
			k -= cum[e-1]
		}
		dom := carveBitsets(make([]bitset, s.nA), slices.Clone(memo[e*n:(e+1)*n]), s.words)
		v := sp.proj[d]
		if fixTo(s, dom, v, dom[v].nth(k)) {
			walk(dom, d+1, []int{r}, total)
		} else {
			leaf([]int{r}, total)
		}
	}
	return mean, live
}

// TestSamplerUnbiasedByEnumeration is the sampler's unbiasedness
// oracle: on the differential suite's inputs small enough to brute
// force, with partial projections, pins / restricts and memo depths 0,
// 1 and 2, the exact mean of Sample over its draw tree must equal the
// number of distinct projections of the homomorphisms A → B.
func TestSamplerUnbiasedByEnumeration(t *testing.T) {
	var depths [maxMemoDepth + 1]int
	var zeros, partial, pinned, positive, branches int
	for _, nB := range []int{1, 2, 3, 5, 11, 27, 64, 65} {
		rng := rand.New(rand.NewSource(int64(6000 + nB)))
		for iter := 0; iter < 150; iter++ {
			c := samplerCase(rng, nB, iter)
			if !smallSpace(c) {
				continue
			}
			proj := samplerProj(rng, c)
			_, projs := bruteAnswers(c, proj)
			want := big.NewRat(int64(len(projs)), 1)
			for maxDepth := 0; maxDepth <= maxMemoDepth; maxDepth++ {
				sp := newSamplerDepth(newSolver(c.A, c.B, c.opts), proj, maxDepth)
				got, live := drawTreeMean(t, c, sp)
				if got.Cmp(want) != 0 {
					t.Fatalf("nB=%d iter %d proj %v (of %d) depth %d: E[Sample] = %v, brute force counts %v", nB, iter, proj, c.A.Size(), sp.depth, got.RatString(), want)
				}
				if sp.ExactZero() {
					zeros++
					continue
				}
				depths[sp.depth]++
				branches += live
				if len(projs) > 0 {
					positive++
				}
				if len(proj) < c.A.Size() {
					partial++
				}
				if c.opts.Pin != nil || c.opts.Restrict != nil {
					pinned++
				}
			}
		}
	}
	t.Logf("samplers by depth %v, %d exact zeros; %d with answers, %d partial, %d pinned/restricted; %d live branches",
		depths, zeros, positive, partial, pinned, branches)
	if depths[0] < 500 || depths[1] < 200 || depths[2] < 40 || positive < 700 || partial < 400 || pinned < 400 {
		t.Fatalf("generator is lopsided: samplers by depth %v, %d with answers, %d partial, %d pinned/restricted", depths, positive, partial, pinned)
	}
}

// TestSampleAllocatesNothing pins the per-draw cost model: a draw on the
// approx-hard inputs is propagation only, its first two fixings served
// from the memo prefilled at construction.  The 200 draws run inside
// one measured call, so a single allocation among them fails the test.
func TestSampleAllocatesNothing(t *testing.T) {
	a, proj := cliquePattern(4)
	b := erStructure(40, 16, 20160626)
	rng := rand.New(rand.NewSource(1))
	draws := func(sp *Sampler) func() {
		return func() {
			for i := 0; i < 200; i++ {
				sp.Sample(rng)
			}
		}
	}
	sp := NewSampler(structure.AtomsOf(a), b, proj, Options{})
	if sp.depth != 2 {
		t.Fatalf("memo depth %d on the approx-hard inputs, want 2", sp.depth)
	}
	if allocs := testing.AllocsPerRun(1, draws(sp)); allocs != 0 {
		t.Fatalf("200 draws allocate %v times, want 0", allocs)
	}
	// A quantified variable brings in the completion search; it must not
	// allocate either once its domain copies are pooled (AllocsPerRun's
	// warm-up call pools them).
	sp = NewSampler(structure.AtomsOf(a), b, proj[:3], Options{})
	if allocs := testing.AllocsPerRun(1, draws(sp)); allocs != 0 {
		t.Fatalf("200 draws with a quantified variable allocate %v times, want 0", allocs)
	}
	// A relation too sparse for support rows (5.9 words per tuple, past
	// structure.BitRowsFit) memoizes nothing beyond the initial domains.
	path := pathPattern(6)
	all := make([]int, path.Size())
	for i := range all {
		all[i] = i
	}
	if sp := NewSampler(structure.AtomsOf(path), erStructure(1500, 4.0, 7), all, Options{}); sp.ExactZero() || sp.depth != 0 {
		t.Fatalf("row-kernel sampler: exact zero %v, memo depth %d; want a live sampler of depth 0", sp.ExactZero(), sp.depth)
	}
}

// TestSamplerDepthRules pins the depth the rules give on the free
// cliques: a total sampler keeps two liberal variables out of its memo,
// so free K3 memoizes one variable and K4 and K5 two, while a partial
// projection keeps one.
func TestSamplerDepthRules(t *testing.T) {
	b := erStructure(40, 16, 20160626)
	for _, tc := range []struct{ k, lib, want int }{
		{2, 2, 0}, {3, 3, 1}, {4, 4, 2}, {5, 5, 2}, {3, 2, 1}, {4, 3, 2},
	} {
		a, proj := cliquePattern(tc.k)
		sp := NewSampler(structure.AtomsOf(a), b, proj[:tc.lib], Options{})
		if sp.ExactZero() || sp.depth != tc.want {
			t.Errorf("K%d with %d liberal: depth %d (exact zero %v), want %d", tc.k, tc.lib, sp.depth, sp.ExactZero(), tc.want)
		}
	}
}
