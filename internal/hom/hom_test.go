package hom

import (
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/structure"
)

func edgeSig() *structure.Signature {
	return structure.MustSignature(structure.RelSym{Name: "E", Arity: 2})
}

// pathStruct returns the directed path 0→1→…→n-1.
func pathStruct(n int) *structure.Structure {
	s := structure.New(edgeSig())
	for i := 0; i < n; i++ {
		s.EnsureElem(string(rune('a' + i)))
	}
	for i := 0; i+1 < n; i++ {
		_ = s.AddTuple("E", i, i+1)
	}
	return s
}

// cycleStruct returns the directed cycle on n vertices.
func cycleStruct(n int) *structure.Structure {
	s := structure.New(edgeSig())
	for i := 0; i < n; i++ {
		s.EnsureElem(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		_ = s.AddTuple("E", i, (i+1)%n)
	}
	return s
}

func loopStruct() *structure.Structure {
	s := structure.New(edgeSig())
	s.EnsureElem("l")
	_ = s.AddTuple("E", 0, 0)
	return s
}

func TestExistsBasic(t *testing.T) {
	p3 := pathStruct(3)
	if !Exists(structure.AtomsOf(p3), p3, Options{}) {
		t.Fatal("identity homomorphism must exist")
	}
	// Path maps into a loop.
	if !Exists(structure.AtomsOf(p3), loopStruct(), Options{}) {
		t.Fatal("path must map into loop")
	}
	// Loop does not map into a path.
	if Exists(structure.AtomsOf(loopStruct()), p3, Options{}) {
		t.Fatal("loop must not map into path")
	}
	// Path of length 2 maps into cycle of length 3.
	if !Exists(structure.AtomsOf(p3), cycleStruct(3), Options{}) {
		t.Fatal("path must map into cycle")
	}
	// Directed 3-cycle does not map into directed 4-cycle.
	if Exists(structure.AtomsOf(cycleStruct(3)), cycleStruct(4), Options{}) {
		t.Fatal("C3 must not map into C4 (directed)")
	}
	// But C4 maps into... not into C3 either (directed cycles map iff
	// length divisible).
	if Exists(structure.AtomsOf(cycleStruct(4)), cycleStruct(3), Options{}) {
		t.Fatal("C4 must not map into C3 (directed)")
	}
	if !Exists(structure.AtomsOf(cycleStruct(4)), cycleStruct(2), Options{}) {
		t.Fatal("C4 must map onto C2 (4 divisible by 2)")
	}
}

func TestFindReturnsValidHom(t *testing.T) {
	a := pathStruct(4)
	b := cycleStruct(2)
	h, ok := Find(structure.AtomsOf(a), b, Options{})
	if !ok {
		t.Fatal("path must map into C2")
	}
	for _, r := range a.Signature().Rels() {
		a.ForEachTuple(r.Name, func(tup []int) bool {
			img := make([]int, len(tup))
			for i, v := range tup {
				img[i] = h[v]
			}
			if !b.HasTuple(r.Name, img) {
				t.Fatalf("returned map is not a homomorphism at %v", tup)
			}
			return true
		})
	}
}

func TestPins(t *testing.T) {
	p3 := pathStruct(3) // a→b→c
	c2 := cycleStruct(2)
	// Pin a→a (index 0); forced b→b, c→a.
	h, ok := Find(structure.AtomsOf(p3), c2, Options{Pin: map[int]int{0: 0}})
	if !ok {
		t.Fatal("pinned hom must exist")
	}
	if h[0] != 0 || h[1] != 1 || h[2] != 0 {
		t.Fatalf("pinned hom = %v", h)
	}
	// Unsatisfiable pin: path endpoint into a vertex with no outgoing edge.
	p2 := pathStruct(2)
	if Exists(structure.AtomsOf(p2), p3, Options{Pin: map[int]int{0: 2}}) {
		t.Fatal("pinning source to sink must fail")
	}
	// Pin out of range.
	if Exists(structure.AtomsOf(p2), p3, Options{Pin: map[int]int{0: 99}}) {
		t.Fatal("out-of-range pin must fail")
	}
}

func TestRestrict(t *testing.T) {
	p2 := pathStruct(2)
	p4 := pathStruct(4)
	// First vertex restricted to {c (index 2)}: then the edge forces d.
	h, ok := Find(structure.AtomsOf(p2), p4, Options{Restrict: map[int][]int{0: {2}}})
	if !ok || h[0] != 2 || h[1] != 3 {
		t.Fatalf("restricted hom = %v ok=%v", h, ok)
	}
	if Exists(structure.AtomsOf(p2), p4, Options{Restrict: map[int][]int{0: {3}}}) {
		t.Fatal("restricting to sink must fail")
	}
}

func TestCountHoms(t *testing.T) {
	p2 := pathStruct(2) // one edge: homs = #edges of target
	p5 := pathStruct(5)
	if got := Count(structure.AtomsOf(p2), p5, Options{}); got.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("edge homs into P5 = %v, want 4", got)
	}
	c4 := cycleStruct(4)
	if got := Count(structure.AtomsOf(p2), c4, Options{}); got.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("edge homs into C4 = %v, want 4", got)
	}
	// Single vertex no atoms → |B| homs.
	v := structure.New(edgeSig())
	v.EnsureElem("x")
	if got := Count(structure.AtomsOf(v), p5, Options{}); got.Cmp(big.NewInt(5)) != 0 {
		t.Fatalf("vertex homs = %v, want 5", got)
	}
}

func TestForEachExtendable(t *testing.T) {
	// Formula: E(x,u) with S={x}, u quantified: answers = vertices with an
	// out-edge.
	a := pathStruct(2) // x=0, u=1
	b := pathStruct(4) // a→b→c→d: a,b,c have out-edges
	var got []int
	ForEachExtendable(structure.AtomsOf(a), b, []int{0}, Options{}, func(vals []int) bool {
		got = append(got, vals[0])
		return true
	})
	if len(got) != 3 {
		t.Fatalf("extendable count = %d, want 3 (got %v)", len(got), got)
	}
	// Early stop.
	calls := 0
	ForEachExtendable(structure.AtomsOf(a), b, []int{0}, Options{}, func([]int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop made %d calls", calls)
	}
}

func TestForEachExtendableDistinct(t *testing.T) {
	// Two disjoint quantified witnesses must not duplicate the projected
	// assignment: E(x,u) on a target where x has two out-neighbors.
	a := pathStruct(2)
	b := structure.New(edgeSig())
	for _, n := range []string{"x", "y", "z"} {
		b.EnsureElem(n)
	}
	_ = b.AddTuple("E", 0, 1)
	_ = b.AddTuple("E", 0, 2)
	seen := map[int]int{}
	ForEachExtendable(structure.AtomsOf(a), b, []int{0}, Options{}, func(vals []int) bool {
		seen[vals[0]]++
		return true
	})
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("projection not deduplicated: %v", seen)
	}
}

func TestRepeatedVariablesInTuple(t *testing.T) {
	// A has tuple E(x,x): only loops support it.
	a := structure.New(edgeSig())
	a.EnsureElem("x")
	_ = a.AddTuple("E", 0, 0)
	b := pathStruct(3)
	if Exists(structure.AtomsOf(a), b, Options{}) {
		t.Fatal("loop atom must not map into loop-free path")
	}
	if !Exists(structure.AtomsOf(a), loopStruct(), Options{}) {
		t.Fatal("loop atom must map into loop")
	}
}

// Property: counts of homs from a fixed edge into G(n) equals number of
// tuples; and Exists agrees with Count > 0.
func TestExistsMatchesCountProperty(t *testing.T) {
	sig := edgeSig()
	f := func(n uint8, edges []uint16) bool {
		size := int(n%5) + 1
		b := structure.New(sig)
		for i := 0; i < size; i++ {
			b.EnsureElem(string(rune('a' + i)))
		}
		for _, e := range edges {
			u := int(e) % size
			v := int(e>>4) % size
			_ = b.AddTuple("E", u, v)
		}
		a := pathStruct(3)
		c := Count(structure.AtomsOf(a), b, Options{})
		return Exists(structure.AtomsOf(a), b, Options{}) == (c.Sign() > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Retract: a directed path a→b→c with a second branch a→d folds d onto b;
// fixing d keeps it; a cycle with a chord-free tail is its own core once
// the tail's end is fixed.
func TestRetract(t *testing.T) {
	a := pathStruct(3) // a→b→c
	d := a.FreshElem("d")
	_ = a.AddTuple("E", 0, d)
	if got := Retract(structure.AtomsOf(a), nil); len(got) != 3 {
		t.Fatalf("core of the forked path = %v, want 3 elements", got)
	}
	if got := Retract(structure.AtomsOf(a), []int{d}); len(got) != 4 {
		t.Fatalf("fixing the fork's tip must keep it: %v", got)
	}
	// The kept set must induce a substructure A maps into, fixing `fixed`.
	keep := Retract(structure.AtomsOf(a), []int{0})
	sub, old2new := structure.AtomsOf(a).Induced(keep)
	if !Exists(structure.AtomsOf(a), sub, Options{Pin: map[int]int{0: old2new[0]}}) {
		t.Fatalf("A does not retract onto A[%v]", keep)
	}
	// A structure with a loop retracts onto the loop.
	l := cycleStruct(3)
	_ = l.AddTuple("E", 1, 1)
	if got := Retract(structure.AtomsOf(l), nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("core of a looped cycle = %v, want [1]", got)
	}
	// A directed cycle is a core.
	if got := Retract(structure.AtomsOf(cycleStruct(4)), nil); len(got) != 4 {
		t.Fatalf("directed C4 is a core, got %v", got)
	}
}
