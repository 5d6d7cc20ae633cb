package eptrans

import (
	"fmt"
	"math/big"

	"repro/internal/engine"
	"repro/internal/ie"
	"repro/internal/lin"
	"repro/internal/pp"
	"repro/internal/structure"
)

// EPOracle returns |φ(B)| for a fixed ep-formula φ on the supplied
// structure: the oracle of the pp→ep slice reduction.
type EPOracle func(b *structure.Structure) (*big.Int, error)

// PPCounter counts a pp-formula on a structure: the oracle of the ep→pp
// slice reduction (restricted, by construction, to formulas from φ⁺).
type PPCounter func(p pp.PP, b *structure.Structure) (*big.Int, error)

// CountEPViaPP is the forward slice reduction of Theorem 3.1 (Appendix A):
// count an ep-formula given an oracle for the pp-formulas in φ⁺.
//
// If some sentence disjunct holds on B the count is |B|^|lib|; otherwise
// |φ(B)| = |φaf(B)| = Σ over φ*af of c_ψ·|ψ(B)|, where terms outside φ⁻af
// are answered 0 (they entail a sentence disjunct that fails on B) and
// terms in φ⁻af are answered by the oracle.
func CountEPViaPP(c *Compiled, b *structure.Structure, cnt PPCounter) (*big.Int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	for _, th := range c.Sentences {
		if SentenceHolds(th, b) {
			return c.MaxCount(b), nil
		}
	}
	return ie.Count(c.Minus, b, ie.CountFunc(cnt))
}

// plusIndex locates psi among c.Plus by structure identity.
func (c *Compiled) plusIndex(psi pp.PP) int {
	for i, p := range c.Plus {
		if p.A == psi.A {
			return i
		}
	}
	for i, p := range c.Plus {
		if structure.Equal(p.A, psi.A) && len(p.S) == len(psi.S) {
			same := true
			for j := range p.S {
				if p.S[j] != psi.S[j] {
					same = false
					break
				}
			}
			if same {
				return i
			}
		}
	}
	return -1
}

// CountPPViaEP is the backward slice reduction of Theorem 3.1 (Appendix
// A): count a pp-formula ψ ∈ φ⁺ given an oracle for the ep-formula φ.
//
// For a sentence disjunct θ = (A,V): query |φ(A×B)| and compare with the
// maximum possible count (|A|·|B|)^|V|; θ holds on B iff the maximum is
// attained, in which case |θ(B)| = |B|^|V|.
//
// For ψ ∈ φ⁻af: no sentence disjunct of φ holds on ψ's own structure Aψ
// (that is exactly the φ⁻af filter), and products inherit that failure, so
// on every structure with Aψ as a factor, φ and φaf agree.  We therefore
// run the all-free reduction of Theorem 5.20 on B×Aψ, answer its φaf
// queries directly with the φ oracle, and divide by |ψ(Aψ)| > 0.
// (The paper's Appendix A uses the disjoint union of all φ⁻af structures
// as the product factor; using ψ's own structure is an equally valid
// choice of the reduction's per-parameter data and avoids a subtlety with
// disconnected sentence disjuncts: a sentence disjunct split over several
// φ⁻af structures could hold on their union while failing on each.)
func CountPPViaEP(c *Compiled, psi pp.PP, b *structure.Structure, oracle EPOracle) (*big.Int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	idx := c.plusIndex(psi)
	if idx < 0 {
		return nil, fmt.Errorf("eptrans: formula not in φ⁺")
	}
	if idx >= len(c.Minus) {
		return countSentenceViaEP(c, psi, b, oracle)
	}
	// ψ ∈ φ⁻af.
	cPsi := psi.A
	bc, err := structure.Product(b, cPsi)
	if err != nil {
		return nil, err
	}
	onBC, err := allFreeCountViaEP(c, psi, bc, oracle)
	if err != nil {
		return nil, err
	}
	onC, err := engine.CountOnce(psi, cPsi)
	if err != nil {
		return nil, err
	}
	if onC.Sign() == 0 {
		return nil, fmt.Errorf("eptrans: |ψ(Aψ)| = 0, impossible for ψ ∈ φ⁻af")
	}
	q, r := new(big.Int).QuoRem(onBC, onC, new(big.Int))
	if r.Sign() != 0 {
		return nil, fmt.Errorf("eptrans: product count %v not divisible by |ψ(C)| = %v", onBC, onC)
	}
	return q, nil
}

func countSentenceViaEP(c *Compiled, theta pp.PP, b *structure.Structure, oracle EPOracle) (*big.Int, error) {
	prod, err := structure.Product(theta.A, b)
	if err != nil {
		return nil, err
	}
	got, err := oracle(prod)
	if err != nil {
		return nil, err
	}
	max := structure.PowerSize(prod, len(c.Query.Lib))
	if got.Cmp(max) == 0 {
		return structure.PowerSize(b, len(c.Query.Lib)), nil
	}
	return new(big.Int), nil
}

// allFreeCountViaEP implements the harder direction of Theorem 5.20:
// recover |ψ(B)| for ψ ∈ φ*af from oracle access to Σ_i c_i·|φ*_i(·)|
// (which equals |φaf(·)| by Proposition 5.16, and here is answered by the
// φ oracle on structures where sentence disjuncts fail).
//
// Star terms are grouped into semi-counting-equivalence classes; a
// distinguishing structure C' (Lemma 5.12) gives pairwise distinct,
// positive per-class counts x_j; querying the oracle on B×C'^ℓ for
// ℓ = 0..s-1 yields a Vandermonde system in the per-class aggregates
// T_j = Σ_{ψ∈class j} c_ψ·|ψ(B)|; Lemma 5.18's recursive peeling then
// extracts the individual |ψ(B)| within ψ's class.
func allFreeCountViaEP(c *Compiled, psi pp.PP, b *structure.Structure, oracle EPOracle) (*big.Int, error) {
	if len(c.Star) == 0 {
		return nil, fmt.Errorf("eptrans: query has no all-free part")
	}
	// Group Star terms into semi-counting-equivalence classes.
	var classes [][]int
	target := -1
	targetClass := -1
	for ti, t := range c.Star {
		if t.Formula.A == psi.A {
			target = ti
		}
		placed := false
		for ci, cls := range classes {
			eq, err := pp.SemiCountingEquivalent(c.Star[cls[0]].Formula, t.Formula)
			if err != nil {
				return nil, err
			}
			if eq {
				classes[ci] = append(classes[ci], ti)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []int{ti})
		}
	}
	if target < 0 {
		return nil, fmt.Errorf("eptrans: ψ not among φ*af terms")
	}
	for ci, cls := range classes {
		for _, ti := range cls {
			if ti == target {
				targetClass = ci
			}
		}
	}

	reps := make([]pp.PP, len(classes))
	for ci, cls := range classes {
		reps[ci] = c.Star[cls[0]].Formula
	}
	cPrime, err := DistinguishSet(reps)
	if err != nil {
		return nil, err
	}
	nodes := make([]*big.Int, len(classes))
	for ci := range classes {
		nodes[ci], err = engine.CountOnce(reps[ci], cPrime)
		if err != nil {
			return nil, err
		}
	}

	// aggregates(Y) returns T_j(Y) for all classes via the Vandermonde
	// solve at Y.
	powers := make([]*structure.Structure, len(classes))
	powers[0] = structure.Unit(cPrime.Signature())
	for l := 1; l < len(classes); l++ {
		powers[l], err = structure.Product(powers[l-1], cPrime)
		if err != nil {
			return nil, err
		}
	}
	aggregates := func(y *structure.Structure) ([]*big.Int, error) {
		rhs := make([]*big.Int, len(classes))
		for l := range classes {
			yl, err := structure.Product(y, powers[l])
			if err != nil {
				return nil, err
			}
			rhs[l], err = oracle(yl)
			if err != nil {
				return nil, err
			}
		}
		sol, err := lin.SolveVandermonde(nodes, rhs)
		if err != nil {
			return nil, err
		}
		out := make([]*big.Int, len(sol))
		for i, s := range sol {
			out[i], err = lin.RatInt(s)
			if err != nil {
				return nil, fmt.Errorf("eptrans: non-integer aggregate: %v", err)
			}
		}
		return out, nil
	}

	cls := classes[targetClass]
	if len(cls) == 1 {
		t, err := aggregates(b)
		if err != nil {
			return nil, err
		}
		return exactDiv(t[targetClass], c.Star[cls[0]].Coeff)
	}
	formulas := make([]pp.PP, len(cls))
	coeffs := make([]*big.Int, len(cls))
	tgt := -1
	for i, ti := range cls {
		formulas[i] = c.Star[ti].Formula
		coeffs[i] = c.Star[ti].Coeff
		if ti == target {
			tgt = i
		}
	}
	classOracle := func(y *structure.Structure) (*big.Int, error) {
		t, err := aggregates(y)
		if err != nil {
			return nil, err
		}
		return t[targetClass], nil
	}
	return PeelClass(formulas, coeffs, tgt, b, classOracle)
}

// PeelClass implements Lemma 5.18: given semi-counting-equivalent,
// pairwise non-counting-equivalent free pp-formulas φ_1..φ_s with non-zero
// coefficients and an oracle for Σ c_i·|φ_i(·)|, compute |φ_target(B)|.
//
// The structures are pairwise non-homomorphically-equivalent
// (Proposition 5.17), so a hom-order minimal φ_i exists
// (Proposition 5.19); on C = A_i every other formula has count 0, so
// oracle(B×C) = c_i·|φ_i(B)|·|φ_i(C)| isolates φ_i, and the remaining
// formulas are handled recursively with the oracle adjusted by
// subtraction.
func PeelClass(formulas []pp.PP, coeffs []*big.Int, target int, b *structure.Structure, oracle EPOracle) (*big.Int, error) {
	if len(formulas) != len(coeffs) || target < 0 || target >= len(formulas) {
		return nil, fmt.Errorf("eptrans: bad PeelClass arguments")
	}
	if len(formulas) == 1 {
		v, err := oracle(b)
		if err != nil {
			return nil, err
		}
		return exactDiv(v, coeffs[0])
	}
	i, err := pp.HomOrderMinimal(formulas)
	if err != nil {
		return nil, err
	}
	cStruct := formulas[i].A
	onC, err := engine.CountOnce(formulas[i], cStruct)
	if err != nil {
		return nil, err
	}
	if onC.Sign() == 0 {
		return nil, fmt.Errorf("eptrans: minimal formula has zero count on its own structure")
	}
	den := new(big.Int).Mul(coeffs[i], onC)
	countI := func(y *structure.Structure) (*big.Int, error) {
		yc, err := structure.Product(y, cStruct)
		if err != nil {
			return nil, err
		}
		v, err := oracle(yc)
		if err != nil {
			return nil, err
		}
		return exactDiv(v, den)
	}
	if i == target {
		return countI(b)
	}
	var restF []pp.PP
	var restC []*big.Int
	newTarget := -1
	for j := range formulas {
		if j == i {
			continue
		}
		if j == target {
			newTarget = len(restF)
		}
		restF = append(restF, formulas[j])
		restC = append(restC, coeffs[j])
	}
	restOracle := func(y *structure.Structure) (*big.Int, error) {
		full, err := oracle(y)
		if err != nil {
			return nil, err
		}
		vi, err := countI(y)
		if err != nil {
			return nil, err
		}
		return new(big.Int).Sub(full, new(big.Int).Mul(coeffs[i], vi)), nil
	}
	return PeelClass(restF, restC, newTarget, b, restOracle)
}

func exactDiv(num, den *big.Int) (*big.Int, error) {
	if den.Sign() == 0 {
		return nil, fmt.Errorf("eptrans: division by zero coefficient")
	}
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	if r.Sign() != 0 {
		return nil, fmt.Errorf("eptrans: %v not divisible by %v", num, den)
	}
	return q, nil
}
