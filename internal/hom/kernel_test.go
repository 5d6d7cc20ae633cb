package hom

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/structure"
)

// Differential suite for propagate's two revise kernels.  The bit-row
// kernel serves binary constraints on two distinct variables over a
// relation dense enough for its universe; the row kernel serves
// everything else.  Stripping a solver's support rows (rowKernelOnly)
// sends every constraint through the row kernel, so the two can be
// compared on identical inputs: arc consistency has one fixpoint, hence
// the domains — and everything computed from them — must be equal.

// rowKernelOnly drops every constraint's support rows.
func (s *solver) rowKernelOnly() *solver {
	for i := range s.cons {
		s.cons[i].fwd, s.cons[i].bwd = nil, nil
	}
	return s
}

// usesBitRows reports whether some constraint revises on support rows.
func (s *solver) usesBitRows() bool {
	for i := range s.cons {
		if s.cons[i].fwd != nil {
			return true
		}
	}
	return false
}

var kernelSig = structure.MustSignature(
	structure.RelSym{Name: "E", Arity: 2},
	structure.RelSym{Name: "T", Arity: 3},
)

// kernelUniverses are B's sizes: the degenerate ones and both sides of
// the one- and two-word boundaries.
var kernelUniverses = []int{1, 2, 63, 64, 65, 130}

type kernelCase struct {
	A    *structure.Atoms
	B    *structure.Structure
	opts Options
}

// randomKernelCase draws a pattern A of 1–4 elements (E and T atoms,
// E(x,x) among them) and a target B of nB elements whose E is empty,
// too sparse for support rows, or dense, with loops; T likewise empty
// or populated; and pins / restricts on A's elements.
func randomKernelCase(rng *rand.Rand, nB int) kernelCase {
	a, b := structure.New(kernelSig), structure.New(kernelSig)
	nA := 1 + rng.Intn(4)
	for i := 0; i < nA; i++ {
		a.FreshElem("x")
	}
	for i := 0; i < nB; i++ {
		b.FreshElem("b")
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		x := rng.Intn(nA)
		y := rng.Intn(nA)
		if rng.Intn(4) == 0 {
			y = x
		}
		_ = a.AddTuple("E", x, y)
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		_ = a.AddTuple("T", rng.Intn(nA), rng.Intn(nA), rng.Intn(nA))
	}
	var nE int
	switch rng.Intn(4) {
	case 0: // empty relation
	case 1: // below the structure.BitRowsFit density for every nB > 2
		nE = 1 + nB/16
	default:
		nE = nB + rng.Intn(2*nB*((nB+63)/64)+1)
	}
	for i := 0; i < nE; i++ {
		u, v := rng.Intn(nB), rng.Intn(nB)
		if rng.Intn(8) == 0 {
			v = u
		}
		_ = b.AddTuple("E", u, v)
	}
	if rng.Intn(4) != 0 {
		for i, n := 0, 1+rng.Intn(3*nB); i < n; i++ {
			_ = b.AddTuple("T", rng.Intn(nB), rng.Intn(nB), rng.Intn(nB))
		}
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

func TestReviseKernelsAgreeOnDomains(t *testing.T) {
	sawBits, sawRows := 0, 0
	for _, nB := range kernelUniverses {
		rng := rand.New(rand.NewSource(int64(1000 + nB)))
		for iter := 0; iter < 300; iter++ {
			c := randomKernelCase(rng, nB)
			sb := newSolver(c.A, c.B, c.opts)
			sr := newSolver(c.A, c.B, c.opts).rowKernelOnly()
			if sb.usesBitRows() {
				sawBits++
			} else {
				sawRows++
			}
			db, okb := sb.initialDomains()
			dr, okr := sr.initialDomains()
			if okb != okr || (okb && !reflect.DeepEqual(db, dr)) {
				t.Fatalf("nB=%d iter %d: initial domains differ (bit ok=%v, row ok=%v)", nB, iter, okb, okr)
			}
			// Fix variables one by one, as search and the sampler do.
			for v := 0; okb && v < sb.nA; v++ {
				pick := db[v].nth(rng.Intn(bitvec.Count(db[v])))
				for _, d := range [][]bitset{db, dr} {
					d[v].zero()
					d[v].set(pick)
				}
				okb, okr = sb.propagate(db, v), sr.propagate(dr, v)
				if okb != okr || (okb && !reflect.DeepEqual(db, dr)) {
					t.Fatalf("nB=%d iter %d: domains differ after fixing %d→%d (bit ok=%v, row ok=%v)", nB, iter, v, pick, okb, okr)
				}
			}
		}
	}
	if sawBits < 100 || sawRows < 100 {
		t.Fatalf("generator is lopsided: %d cases with support rows, %d without", sawBits, sawRows)
	}
}

// naiveFixpoint is propagate's reference: it revises every constraint
// of s by scanning its whole relation, and repeats until nothing
// changes.  It returns
// false if some domain is empty.
func naiveFixpoint(s *solver, dom []bitset) bool {
	for changed := true; changed; {
		changed = false
		for ci := range s.cons {
			c := &s.cons[ci]
			sup := carveBitsets(make([]bitset, len(c.vars)), make([]uint64, len(c.vars)*s.words), s.words)
			for row := 0; c.brel != nil && row < c.brel.Len(); row++ {
				ok := true
				for p, v := range c.vars {
					u := int(c.bcols[p][row])
					ok = ok && dom[v].has(u)
					for q := 0; q < p; q++ {
						ok = ok && (c.vars[q] != v || int(c.bcols[q][row]) == u)
					}
				}
				for p := range c.vars {
					if ok {
						sup[p].set(int(c.bcols[p][row]))
					}
				}
			}
			for p, v := range c.vars {
				changed = dom[v].intersect(sup[p]) || changed
			}
		}
		for v := range dom {
			if dom[v].empty() {
				return false
			}
		}
	}
	return true
}

// copyDoms returns a deep copy of dom.
func copyDoms(dom []bitset) []bitset {
	out := make([]bitset, len(dom))
	for v := range dom {
		out[v] = append(bitset(nil), dom[v]...)
	}
	return out
}

// TestPropagateMatchesNaiveFixpoint checks propagate, with its skips of
// entailed constraints, against the naive fixpoint on the differential
// suite's inputs: from the initial domains, then after fixing each
// variable in turn as search and the sampler do, on both kernels.  Arc
// consistency has one fixpoint, so the domains must be equal whenever
// neither wipes out.
func TestPropagateMatchesNaiveFixpoint(t *testing.T) {
	var cases, fixes, live int
	for _, nB := range kernelUniverses {
		rng := rand.New(rand.NewSource(int64(5000 + nB)))
		for iter := 0; iter < 250; iter++ {
			c := randomKernelCase(rng, nB)
			for _, rowsOnly := range []bool{false, true} {
				s := newSolver(c.A, c.B, c.opts)
				if rowsOnly {
					s.rowKernelOnly()
				}
				if s.initErr != nil {
					continue
				}
				cases++
				want := copyDoms(s.initDom)
				wantOK := naiveFixpoint(s, want)
				dom, ok := s.initialDomains()
				if ok != wantOK || (ok && !reflect.DeepEqual(dom, want)) {
					t.Fatalf("nB=%d iter %d rows-only %v: initial domains differ from the naive fixpoint (ok %v, naive %v)", nB, iter, rowsOnly, ok, wantOK)
				}
				for v := 0; ok && v < s.nA; v++ {
					pick := dom[v].nth(rng.Intn(bitvec.Count(dom[v])))
					dom[v].zero()
					dom[v].set(pick)
					want := copyDoms(dom)
					wantOK := naiveFixpoint(s, want)
					ok = s.propagate(dom, v)
					fixes++
					if ok != wantOK || (ok && !reflect.DeepEqual(dom, want)) {
						t.Fatalf("nB=%d iter %d rows-only %v: domains after fixing %d→%d differ from the naive fixpoint (ok %v, naive %v)", nB, iter, rowsOnly, v, pick, ok, wantOK)
					}
					if ok {
						live++
					}
				}
			}
		}
	}
	t.Logf("%d solvers, %d fixings, %d live", cases, fixes, live)
	if cases < 2000 || live < 2000 {
		t.Fatalf("generator is lopsided: %d cases, %d fixings, %d live", cases, fixes, live)
	}
}

// bruteAnswers enumerates every map A → B that respects opts and carries
// each A-tuple to a B-tuple; it returns their number and the distinct
// projections onto proj in lexicographic order.
func bruteAnswers(c kernelCase, proj []int) (int, [][]int) {
	nA, nB := c.A.Size(), c.B.Size()
	allowed := make([][]bool, nA)
	for v := range allowed {
		allowed[v] = make([]bool, nB)
		for u := range allowed[v] {
			allowed[v][u] = true
		}
	}
	for v, vals := range c.opts.Restrict {
		for u := range allowed[v] {
			allowed[v][u] = false
		}
		for _, u := range vals {
			allowed[v][u] = true
		}
	}
	for v, u := range c.opts.Pin {
		ok := allowed[v][u]
		for w := range allowed[v] {
			allowed[v][w] = false
		}
		allowed[v][u] = ok
	}
	da := c.A.Database()
	h := make([]int, nA)
	total := 0
	seen := map[string]bool{}
	var projs [][]int
	var rec func(v int)
	rec = func(v int) {
		if v == nA {
			for _, r := range kernelSig.Rels() {
				hom := true
				da.ForEachTuple(r.Name, func(tup []int) bool {
					img := make([]int, len(tup))
					for i, x := range tup {
						img[i] = h[x]
					}
					hom = c.B.HasTuple(r.Name, img)
					return hom
				})
				if !hom {
					return
				}
			}
			total++
			vals := make([]int, len(proj))
			for i, x := range proj {
				vals[i] = h[x]
			}
			if k := fmt.Sprint(vals); !seen[k] {
				seen[k] = true
				projs = append(projs, vals)
			}
			return
		}
		for u := 0; u < nB; u++ {
			if allowed[v][u] {
				h[v] = u
				rec(v + 1)
			}
		}
	}
	rec(0)
	return total, projs
}

func TestCountAndExtendableMatchBruteForce(t *testing.T) {
	checked := 0
	for _, nB := range kernelUniverses {
		rng := rand.New(rand.NewSource(int64(2000 + nB)))
		for iter := 0; iter < 120; iter++ {
			c := randomKernelCase(rng, nB)
			nA := c.A.Size()
			if space := new(big.Int).Exp(big.NewInt(int64(nB)), big.NewInt(int64(nA)), nil); space.Cmp(big.NewInt(20000)) > 0 {
				continue
			}
			checked++
			// Project onto the leading elements: brute force then meets
			// the projections in the lexicographic order ForEachExtendable
			// promises.
			proj := make([]int, rng.Intn(nA+1))
			for i := range proj {
				proj[i] = i
			}
			wantN, wantProj := bruteAnswers(c, proj)
			if got := Count(c.A, c.B, c.opts); got.Cmp(big.NewInt(int64(wantN))) != 0 {
				t.Fatalf("nB=%d iter %d: Count = %v, brute force %d", nB, iter, got, wantN)
			}
			var gotProj [][]int
			ForEachExtendable(c.A, c.B, proj, c.opts, func(vals []int) bool {
				gotProj = append(gotProj, append([]int(nil), vals...))
				return true
			})
			if fmt.Sprint(gotProj) != fmt.Sprint(wantProj) {
				t.Fatalf("nB=%d iter %d: ForEachExtendable(%v) = %v, brute force %v", nB, iter, proj, gotProj, wantProj)
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d cases were small enough to brute-force", checked)
	}
}

func TestSamplerWeightsIdenticalAcrossKernels(t *testing.T) {
	live := 0
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		nB := kernelUniverses[rng.Intn(len(kernelUniverses))]
		c := randomKernelCase(rng, nB)
		proj := rng.Perm(c.A.Size())[:1+rng.Intn(c.A.Size())]
		bit := newSampler(newSolver(c.A, c.B, c.opts), proj)
		row := newSampler(newSolver(c.A, c.B, c.opts).rowKernelOnly(), proj)
		if bit.ExactZero() != row.ExactZero() {
			t.Fatalf("seed %d: samplers disagree before the first draw", seed)
		}
		rb, rr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			wb, wr := bit.Sample(rb), row.Sample(rr)
			if wb != wr {
				t.Fatalf("seed %d draw %d: weight %v on support rows, %v on the row kernel", seed, i, wb, wr)
			}
			if wb != 0 {
				live++
			}
		}
	}
	if live < 500 {
		t.Fatalf("only %d live draws: the comparison is vacuous", live)
	}
}
