package reduce

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/engine"
	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
)

// SentenceHolds reports whether the given sentence disjunct is true on b
// (equivalently, whether its structure maps homomorphically into b).
func SentenceHolds(theta pp.PP, b *structure.Structure) bool {
	return hom.Exists(theta.A, b, hom.Options{})
}

// exactCounters compiles each formula once and returns, per formula, a
// function counting |p(B)| exactly on a structure B of its signature, in
// a session of its own: the distinguishing search tries many throwaway
// candidates, so it neither recompiles per candidate nor lets them into
// the process-wide session registry, where they would evict serving
// sessions.
func exactCounters(ps ...pp.PP) ([]func(*structure.Structure) (*big.Int, error), error) {
	out := make([]func(*structure.Structure) (*big.Int, error), len(ps))
	for i, p := range ps {
		pl, err := engine.Compile(p, engine.FPT)
		if err != nil {
			return nil, err
		}
		out[i] = func(b *structure.Structure) (*big.Int, error) {
			return pl.CountIn(context.Background(), engine.NewSession(b))
		}
	}
	return out, nil
}

// maxMaterializedSize caps the size of structures the distinguishing
// search is willing to build.
const maxMaterializedSize = 1 << 17

// DistinguishPair implements Lemma 5.13: given two liberal pp-formulas
// that are not semi-counting equivalent, find a structure D on which every
// pp-formula has a positive count (D contains an all-loop element) and the
// two formulas have different counts.
//
// Strategy: try targeted candidates assembled from the formulas' own
// structures (the proof's witness always embeds in such unions), each
// padded with k all-loop elements for k up to the polynomial-degree bound
// of the B+kI argument in the proofs of Theorem 5.9 and Lemma 5.13; fall
// back to a bounded enumeration of small structures.
func DistinguishPair(p, q pp.PP) (*structure.Structure, error) {
	sig := p.A.Signature()
	if !sig.Equal(q.A.Signature()) {
		return nil, fmt.Errorf("reduce: distinguishing across different signatures")
	}
	// Counts on B+kI are polynomials in k of degree at most the number of
	// components; if two such polynomials differ they differ at some
	// k ≤ deg+1 among k = 1..deg+2.
	degBound := len(p.Components()) + len(q.Components()) + 2

	pa, qa := p.A.Database(), q.A.Database()
	bases := []*structure.Structure{}
	if u, err := structure.DisjointUnion(pa, qa); err == nil {
		bases = append(bases, u)
	}
	bases = append(bases, pa, qa)
	if prod, err := structure.Product(pa, qa); err == nil && prod.Size() <= maxMaterializedSize {
		bases = append(bases, prod)
	}

	counts, err := exactCounters(p, q)
	if err != nil {
		return nil, err
	}
	try := func(cand *structure.Structure) (bool, error) {
		cp, err := counts[0](cand)
		if err != nil {
			return false, err
		}
		cq, err := counts[1](cand)
		if err != nil {
			return false, err
		}
		return cp.Sign() > 0 && cq.Sign() > 0 && cp.Cmp(cq) != 0, nil
	}

	for _, base := range bases {
		for k := 1; k <= degBound; k++ {
			cand := structure.PadLoops(base, k)
			ok, err := try(cand)
			if err != nil {
				return nil, err
			}
			if ok {
				return cand, nil
			}
		}
	}
	// Bounded fallback enumeration of small structures (padded to ensure
	// positivity).  Semi-counting inequivalence guarantees a witness
	// exists; it is usually tiny.
	for _, base := range enumerateStructures(sig, 3, 4096) {
		for k := 1; k <= degBound; k++ {
			cand := structure.PadLoops(base, k)
			ok, err := try(cand)
			if err != nil {
				return nil, err
			}
			if ok {
				return cand, nil
			}
		}
	}
	return nil, fmt.Errorf("reduce: no distinguishing structure found for %v vs %v (are they semi-counting equivalent?)", p, q)
}

// enumerateStructures yields up to limit structures over sig with at most
// maxN elements, in a deterministic order: for each universe size, tuple
// slots are toggled in a Gray-code-like sweep (small tuple sets first).
func enumerateStructures(sig *structure.Signature, maxN, limit int) []*structure.Structure {
	var out []*structure.Structure
	for n := 1; n <= maxN && len(out) < limit; n++ {
		// All possible tuples over n elements, across all relations.
		type slot struct {
			rel string
			t   []int
		}
		var slots []slot
		for _, r := range sig.Rels() {
			t := make([]int, r.Arity)
			for {
				slots = append(slots, slot{rel: r.Name, t: append([]int(nil), t...)})
				j := r.Arity - 1
				for j >= 0 {
					t[j]++
					if t[j] < n {
						break
					}
					t[j] = 0
					j--
				}
				if j < 0 {
					break
				}
			}
		}
		if len(slots) > 20 {
			// Too many subsets to sweep exhaustively; sample the sweep by
			// taking prefixes of increasing length instead.
			for l := 1; l <= len(slots) && len(out) < limit; l++ {
				s := structure.New(sig)
				for e := 0; e < n; e++ {
					_, _ = s.AddElem(fmt.Sprintf("e%d", e))
				}
				for _, sl := range slots[:l] {
					_ = s.AddTuple(sl.rel, sl.t...)
				}
				out = append(out, s)
			}
			continue
		}
		for mask := 1; mask < 1<<len(slots) && len(out) < limit; mask++ {
			s := structure.New(sig)
			for e := 0; e < n; e++ {
				_, _ = s.AddElem(fmt.Sprintf("e%d", e))
			}
			for i, sl := range slots {
				if mask&(1<<i) != 0 {
					_ = s.AddTuple(sl.rel, sl.t...)
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// DistinguishSet implements Lemma 5.12: given pairwise non-semi-counting-
// equivalent liberal pp-formulas, find a structure C such that every
// pp-formula has positive count on C and the given formulas have pairwise
// distinct counts on C.
//
// Following the induction in the proof, formulas are inserted one at a
// time; a collision between the newcomer and an existing formula is
// resolved by a pairwise distinguisher D' (Lemma 5.13) and product
// amplification C^ℓ × D'.  Counts on products factor
// (|ψ(C₁×C₂)| = |ψ(C₁)|·|ψ(C₂)|), so candidate ℓ are evaluated
// arithmetically and the structure is materialized only once a working ℓ
// is found.
func DistinguishSet(reps []pp.PP) (*structure.Structure, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("reduce: no formulas to distinguish")
	}
	c := structure.PadLoops(reps[0].A.Database(), 1)

	counts, err := exactCounters(reps...)
	if err != nil {
		return nil, err
	}
	countsOn := func(x *structure.Structure, upto int) ([]*big.Int, error) {
		out := make([]*big.Int, upto)
		for i := 0; i < upto; i++ {
			v, err := counts[i](x)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	allDistinct := func(vals []*big.Int) bool {
		for i := range vals {
			if vals[i].Sign() == 0 {
				return false
			}
			for j := i + 1; j < len(vals); j++ {
				if vals[i].Cmp(vals[j]) == 0 {
					return false
				}
			}
		}
		return true
	}

	for t := 1; t < len(reps); t++ {
		vals, err := countsOn(c, t+1)
		if err != nil {
			return nil, err
		}
		if allDistinct(vals) {
			continue
		}
		// Find the collision partner of rep t (or any colliding pair).
		coll := -1
		for i := 0; i < t; i++ {
			if vals[i].Cmp(vals[t]) == 0 {
				coll = i
				break
			}
		}
		if coll == -1 {
			// Collision among earlier formulas cannot happen (inductive
			// invariant), but guard anyway by re-distinguishing the first
			// colliding pair.
			for i := 0; i < t && coll == -1; i++ {
				for j := i + 1; j <= t; j++ {
					if vals[i].Cmp(vals[j]) == 0 {
						coll = i
						break
					}
				}
			}
		}
		dPrime, err := DistinguishPair(reps[t], reps[coll])
		if err != nil {
			return nil, err
		}
		dVals, err := countsOn(dPrime, t+1)
		if err != nil {
			return nil, err
		}
		cVals := vals
		found := false
		sizeC, sizeD := big.NewInt(int64(c.Size())), big.NewInt(int64(dPrime.Size()))
		for l := 1; l <= 64; l++ {
			// Arithmetic counts on C^l × D'.
			cand := make([]*big.Int, t+1)
			for i := range cand {
				pow := new(big.Int).Exp(cVals[i], big.NewInt(int64(l)), nil)
				cand[i] = pow.Mul(pow, dVals[i])
			}
			if !allDistinct(cand) {
				continue
			}
			size := new(big.Int).Exp(sizeC, big.NewInt(int64(l)), nil)
			size.Mul(size, sizeD)
			if size.Cmp(big.NewInt(maxMaterializedSize)) > 0 {
				return nil, fmt.Errorf("reduce: distinguishing structure would need %v elements (C^%d×D')", size, l)
			}
			cl, err := structure.Power(c, l)
			if err != nil {
				return nil, err
			}
			c, err = structure.Product(cl, dPrime)
			if err != nil {
				return nil, err
			}
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("reduce: product amplification failed to separate formula %d", t)
		}
	}
	// Final verification.
	vals, err := countsOn(c, len(reps))
	if err != nil {
		return nil, err
	}
	if !allDistinct(vals) {
		return nil, fmt.Errorf("reduce: distinguishing structure verification failed")
	}
	if !c.HasAllLoopElem() {
		return nil, fmt.Errorf("reduce: distinguishing structure lost its all-loop element")
	}
	return c, nil
}
