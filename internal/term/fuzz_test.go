package term_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/term"
	"repro/internal/workload"
)

// formulaFromBytes decodes a small pp-formula over E/2 from a fuzz
// payload: universe size, tuple list, and liberal-set bitmask, all
// bounded so the canonical labeling always stays far under budget.
func formulaFromBytes(data []byte) (pp.PP, []byte, bool) {
	if len(data) < 3 {
		return pp.PP{}, nil, false
	}
	n := 2 + int(data[0])%4 // 2..5 elements
	nt := 1 + int(data[1])%6
	sBits := data[2]
	data = data[3:]
	if len(data) < 2*nt {
		return pp.PP{}, nil, false
	}
	a := structure.New(workload.EdgeSig())
	for i := 0; i < n; i++ {
		a.EnsureElem("v" + string(rune('0'+i)))
	}
	for i := 0; i < nt; i++ {
		if err := a.AddTuple("E", int(data[2*i])%n, int(data[2*i+1])%n); err != nil {
			return pp.PP{}, nil, false
		}
	}
	data = data[2*nt:]
	var s []int
	for v := 0; v < n; v++ {
		if sBits&(1<<v) != 0 {
			s = append(s, v)
		}
	}
	p, err := pp.New(structure.AtomsOf(a), s)
	if err != nil {
		return pp.PP{}, nil, false
	}
	return p, data, true
}

// permFromBytes decodes a permutation of [0,n) (Fisher–Yates driven by
// the payload; missing bytes read as zero).
func permFromBytes(data []byte, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		var b byte
		if len(data) > 0 {
			b, data = data[0], data[1:]
		}
		j := int(b) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// applyPerm rebuilds the formula with every element index mapped through
// perm: an isomorphic copy, so its fingerprint must not change.
func applyPerm(p pp.PP, perm []int) (pp.PP, error) {
	a := structure.New(p.A.Signature())
	for i := 0; i < p.A.Size(); i++ {
		a.EnsureElem("w" + string(rune('0'+i)))
	}
	var addErr error
	pa := p.A.Database()
	for _, r := range p.A.Signature().Rels() {
		pa.ForEachTuple(r.Name, func(t []int) bool {
			nt := make([]int, len(t))
			for j, v := range t {
				nt[j] = perm[v]
			}
			addErr = a.AddTuple(r.Name, nt...)
			return addErr == nil
		})
		if addErr != nil {
			return pp.PP{}, addErr
		}
	}
	var s []int
	for _, v := range p.S {
		s = append(s, perm[v])
	}
	return pp.New(structure.AtomsOf(a), s)
}

// FuzzFingerprintInvariance checks the canonical-labeling core of the
// interning layer: the fingerprint of a formula is invariant under every
// permutation of its element indices (variable renaming), and the engine
// counts the same answers for a permuted copy as for the original on a
// fixed small structure.
func FuzzFingerprintInvariance(f *testing.F) {
	f.Add([]byte{3, 4, 0b101, 0, 1, 1, 2, 2, 0, 1, 3, 9, 4, 7})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{2, 2, 0b11, 0, 1, 1, 0, 2, 5})
	f.Add([]byte{5, 5, 0b10010, 1, 2, 3, 4, 0, 0, 2, 3, 4, 1, 8, 1, 6, 2})
	b := workload.RandomStructure(workload.EdgeSig(), 4, 0.4, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest, ok := formulaFromBytes(data)
		if !ok {
			t.Skip()
		}
		fp1, err := term.Fingerprint(p)
		if err != nil {
			t.Fatal(err)
		}
		perm := permFromBytes(rest, p.A.Size())
		q, err := applyPerm(p, perm)
		if err != nil {
			t.Fatal(err)
		}
		fp2, err := term.Fingerprint(q)
		if err != nil {
			t.Fatal(err)
		}
		if fp1 != fp2 {
			t.Fatalf("fingerprint not invariant under permutation %v:\n%q\nvs\n%q", perm, fp1, fp2)
		}
		np, err := engine.CountOnce(p, b)
		if err != nil {
			t.Fatal(err)
		}
		nq, err := engine.CountOnce(q, b)
		if err != nil {
			t.Fatal(err)
		}
		if np.Cmp(nq) != 0 {
			t.Fatalf("permuted copy under %v counts %v, the original %v", perm, nq, np)
		}
	})
}
