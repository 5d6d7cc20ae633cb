package structure

import (
	"math/rand"
	"testing"
)

// refSet is the reference model the bitmap is checked against.
type refSet map[int32]bool

// members collects the set ForEach yields: the membership probe of a
// posting list that is only ever appended to, iterated and unioned.
func members(bm *Bitmap) refSet {
	out := refSet{}
	bm.ForEach(func(r int32) bool {
		out[r] = true
		return true
	})
	return out
}

// buildBoth inserts rows into a Bitmap and the reference model.
func buildBoth(rows []int32) (*Bitmap, refSet) {
	bm, ref := &Bitmap{}, refSet{}
	for _, r := range rows {
		added := bm.Add(r)
		if added == ref[r] {
			panic("Add novelty disagrees with reference")
		}
		ref[r] = true
	}
	return bm, ref
}

// containerSizes are cardinalities straddling the array↔bitmap
// promotion threshold, plus small and word-boundary sizes.
var containerSizes = []int{0, 1, 2, 63, 64, 65, arrayContainerCap - 1, arrayContainerCap, arrayContainerCap + 1, 3 * arrayContainerCap}

func TestBitmapContainerBoundarySizes(t *testing.T) {
	for _, n := range containerSizes {
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(i * 3) // spread within one chunk for n ≤ 21845, beyond for larger
		}
		bm, ref := buildBoth(rows)
		if bm.Len() != len(ref) {
			t.Fatalf("n=%d: Len %d != %d", n, bm.Len(), len(ref))
		}
		// Promotion: a single-chunk container at or past the threshold
		// must be in bitmap form; below it, array form.
		if n > 0 && n < arrayContainerCap && int32(3*(n-1)) < containerSpan {
			if bm.ctrs[0].words != nil {
				t.Fatalf("n=%d: container promoted below threshold", n)
			}
		}
		got := 0
		prev := int32(-1)
		bm.ForEach(func(r int32) bool {
			if r <= prev {
				t.Fatalf("n=%d: ForEach out of order (%d after %d)", n, r, prev)
			}
			prev = r
			if !ref[r] {
				t.Fatalf("n=%d: ForEach visited non-member %d", n, r)
			}
			got++
			return true
		})
		if got != len(ref) {
			t.Fatalf("n=%d: ForEach visited %d members, want %d", n, got, len(ref))
		}
		in := members(bm)
		for _, r := range rows {
			if !in[r] {
				t.Fatalf("n=%d: member %d not yielded", n, r)
			}
		}
		if in[int32(3*n+1)] {
			t.Fatalf("n=%d: non-member yielded", n)
		}
	}
}

func TestBitmapPromotionAtThreshold(t *testing.T) {
	bm := &Bitmap{}
	for i := 0; i < arrayContainerCap-1; i++ {
		bm.Add(int32(i))
	}
	if bm.ctrs[0].words != nil {
		t.Fatal("container promoted one below the threshold")
	}
	bm.Add(int32(arrayContainerCap - 1))
	if bm.ctrs[0].words == nil {
		t.Fatal("container not promoted at the threshold")
	}
	if bm.Len() != arrayContainerCap {
		t.Fatalf("Len %d after promotion, want %d", bm.Len(), arrayContainerCap)
	}
	in := members(bm)
	for i := 0; i < arrayContainerCap; i++ {
		if !in[int32(i)] {
			t.Fatalf("member %d lost across promotion", i)
		}
	}
}

func TestBitmapRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		// Mix densities and chunk spreads, including cross-chunk rows
		// and out-of-order inserts.
		span := int32(1 << uint(10+rng.Intn(10))) // up to ~1M
		na, nb := rng.Intn(5000), rng.Intn(5000)
		rowsA := make([]int32, na)
		rowsB := make([]int32, nb)
		for i := range rowsA {
			rowsA[i] = rng.Int31n(span)
		}
		for i := range rowsB {
			rowsB[i] = rng.Int31n(span)
		}
		a, refA := buildBoth(rowsA)
		b, refB := buildBoth(rowsB)
		if a.Len() != len(refA) || b.Len() != len(refB) {
			t.Fatalf("trial %d: Len mismatch", trial)
		}
		for which, pair := range []struct {
			bm  *Bitmap
			ref refSet
		}{{a, refA}, {b, refB}} {
			in := members(pair.bm)
			if len(in) != len(pair.ref) {
				t.Fatalf("trial %d: bitmap %d yields %d members, want %d", trial, which, len(in), len(pair.ref))
			}
			for r := range pair.ref {
				if !in[r] {
					t.Fatalf("trial %d: bitmap %d lost member %d", trial, which, r)
				}
			}
		}
		// Union via words equals the reference union.
		words := make([]uint64, (span+63)/64)
		a.UnionIntoWords(words)
		b.UnionIntoWords(words)
		got := 0
		for _, w := range words {
			for w != 0 {
				w &= w - 1
				got++
			}
		}
		union := len(refB)
		for r := range refA {
			if !refB[r] {
				union++
			}
		}
		if got != union {
			t.Fatalf("trial %d: word union card %d, want %d", trial, got, union)
		}
		// Clone shares nothing.
		cl := a.clone()
		for r := range refB {
			cl.Add(r)
		}
		if a.Len() != len(refA) {
			t.Fatalf("trial %d: clone mutation leaked into original", trial)
		}
	}
}
