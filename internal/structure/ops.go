package structure

import (
	"fmt"
	"math/big"
	"strings"
)

// Unit returns the structure I_τ: a single element ι with, for every
// relation symbol R of arity k, the single tuple (ι,...,ι).  It is the unit
// of the direct product up to isomorphism, and every pp-formula has exactly
// one answer per liberal variable assignment on it.
func Unit(sig *Signature) *Structure {
	s := New(sig)
	i, _ := s.AddElem("ι")
	for _, r := range sig.Rels() {
		t := make([]int, r.Arity)
		for j := range t {
			t[j] = i
		}
		_ = s.AddTuple(r.Name, t...)
	}
	return s
}

// Product returns the direct (categorical) product A × B: universe A×B,
// with ((a1,b1),...,(ak,bk)) ∈ R iff (a1..ak) ∈ R^A and (b1..bk) ∈ R^B.
// The key property used throughout the paper: |ψ(A×B)| = |ψ(A)|·|ψ(B)|
// for every pp-formula ψ.
func Product(a, b *Structure) (*Structure, error) {
	if !a.sig.Equal(b.sig) {
		return nil, fmt.Errorf("structure: product over different signatures %v vs %v", a.sig, b.sig)
	}
	out := New(a.sig)
	pair := func(i, j int) int { return i*b.Size() + j }
	for i := 0; i < a.Size(); i++ {
		for j := 0; j < b.Size(); j++ {
			name := "(" + a.ElemName(i) + "," + b.ElemName(j) + ")"
			if out.HasElem(name) {
				name = fmt.Sprintf("(%s,%s)#%d", a.ElemName(i), b.ElemName(j), pair(i, j))
			}
			if _, err := out.AddElem(name); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range a.sig.Rels() {
		ra, rb := a.Rel(r.Name), b.Rel(r.Name)
		na, nb := ra.Len(), rb.Len()
		u := make([]int, r.Arity)
		v := make([]int, r.Arity)
		t := make([]int, r.Arity)
		for i := 0; i < na; i++ {
			ra.Row(i, u)
			for j := 0; j < nb; j++ {
				rb.Row(j, v)
				for p := 0; p < r.Arity; p++ {
					t[p] = pair(u[p], v[p])
				}
				_ = out.AddTuple(r.Name, t...)
			}
		}
	}
	return out, nil
}

// Power returns A^k (k ≥ 0); A^0 is Unit(sig).
func Power(a *Structure, k int) (*Structure, error) {
	if k < 0 {
		return nil, fmt.Errorf("structure: negative power %d", k)
	}
	out := Unit(a.sig)
	for i := 0; i < k; i++ {
		var err error
		out, err = Product(out, a)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PowerSize returns |A|^k as a big integer without materializing the power.
func PowerSize(a *Structure, k int) *big.Int {
	return new(big.Int).Exp(big.NewInt(int64(a.Size())), big.NewInt(int64(k)), nil)
}

// DisjointUnion returns A ⊎ B.  Element names from B that collide with
// names from A are suffixed with primes until fresh.
func DisjointUnion(a, b *Structure) (*Structure, error) {
	if !a.sig.Equal(b.sig) {
		return nil, fmt.Errorf("structure: disjoint union over different signatures")
	}
	out := a.Clone()
	bShift := make([]int, b.Size())
	for j := 0; j < b.Size(); j++ {
		name := b.ElemName(j)
		for out.HasElem(name) {
			name += "'"
		}
		idx, _ := out.AddElem(name)
		bShift[j] = idx
	}
	for _, r := range b.sig.Rels() {
		nt := make([]int, r.Arity)
		b.ForEachTuple(r.Name, func(t []int) bool {
			for p, v := range t {
				nt[p] = bShift[v]
			}
			_ = out.AddTuple(r.Name, nt...)
			return true
		})
	}
	return out, nil
}

// PadLoops returns B + kI: the disjoint union of b with k fresh all-loop
// elements (k copies of I_τ).  This is the padding used in the proofs of
// Theorem 5.9 and Lemma 5.13.
func PadLoops(b *Structure, k int) *Structure {
	out := b.Clone()
	for c := 0; c < k; c++ {
		e := out.FreshElem("ι" + itoaSub(c))
		for _, r := range out.sig.Rels() {
			t := make([]int, r.Arity)
			for j := range t {
				t[j] = e
			}
			_ = out.AddTuple(r.Name, t...)
		}
	}
	return out
}

func itoaSub(n int) string {
	const digits = "₀₁₂₃₄₅₆₇₈₉"
	if n == 0 {
		return "₀"
	}
	var b strings.Builder
	var rev []rune
	for n > 0 {
		rev = append(rev, []rune(digits)[n%10])
		n /= 10
	}
	for i := len(rev) - 1; i >= 0; i-- {
		b.WriteRune(rev[i])
	}
	return b.String()
}

// Equal reports whether two structures are identical (same signature, same
// element names in the same order, same tuple sets).  This is equality of
// presentations, not isomorphism.
func Equal(a, b *Structure) bool {
	if !a.sig.Equal(b.sig) || a.Size() != b.Size() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		if a.ElemName(i) != b.ElemName(i) {
			return false
		}
	}
	for _, r := range a.sig.Rels() {
		if a.Rel(r.Name).Len() != b.Rel(r.Name).Len() {
			return false
		}
		equal := true
		a.ForEachTuple(r.Name, func(t []int) bool {
			if !b.HasTuple(r.Name, t) {
				equal = false
			}
			return equal
		})
		if !equal {
			return false
		}
	}
	return true
}
