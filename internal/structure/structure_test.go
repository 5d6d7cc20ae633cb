package structure

import (
	"math/big"
	"testing"
	"testing/quick"
)

func edgeSig() *Signature {
	return MustSignature(RelSym{Name: "E", Arity: 2})
}

func twoRelSig() *Signature {
	return MustSignature(RelSym{Name: "E", Arity: 2}, RelSym{Name: "F", Arity: 1})
}

func TestSignatureBasics(t *testing.T) {
	s := twoRelSig()
	if got := s.NumRels(); got != 2 {
		t.Fatalf("NumRels = %d, want 2", got)
	}
	if ar, ok := s.Arity("E"); !ok || ar != 2 {
		t.Fatalf("Arity(E) = %d,%v", ar, ok)
	}
	if _, ok := s.Arity("G"); ok {
		t.Fatal("Arity(G) should not exist")
	}
	if s.String() != "{E/2, F/1}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSignatureErrors(t *testing.T) {
	if _, err := NewSignature(RelSym{Name: "E", Arity: 2}, RelSym{Name: "E", Arity: 2}); err == nil {
		t.Fatal("duplicate relation should error")
	}
	if _, err := NewSignature(RelSym{Name: "", Arity: 2}); err == nil {
		t.Fatal("empty name should error")
	}
	if _, err := NewSignature(RelSym{Name: "E", Arity: 0}); err == nil {
		t.Fatal("zero arity should error")
	}
}

func TestSignatureEqualRestrict(t *testing.T) {
	a := edgeSig()
	b := edgeSig()
	if !a.Equal(b) {
		t.Fatal("equal signatures not Equal")
	}
	c := twoRelSig()
	if a.Equal(c) {
		t.Fatal("larger signature should differ")
	}
	d := c.Restrict(func(r RelSym) bool { return r.Name == "E" })
	if !d.Equal(a) {
		t.Fatal("restricted signature should equal original")
	}
}

// String is rendered once at construction and Rel indexes the sorted
// symbols without copying.
func TestSignatureStringAndRel(t *testing.T) {
	s := MustSignature(RelSym{Name: "F", Arity: 1}, RelSym{Name: "E", Arity: 2})
	if got := s.String(); got != "{E/2, F/1}" {
		t.Fatalf("String() = %q", got)
	}
	for i, r := range s.Rels() {
		if s.Rel(i) != r {
			t.Fatalf("Rel(%d) = %v, want %v", i, s.Rel(i), r)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.String() }); n != 0 {
		t.Fatalf("String() allocates %v times per call", n)
	}
}

func TestStructureBasics(t *testing.T) {
	s := New(edgeSig())
	if err := s.Validate(); err == nil {
		t.Fatal("empty structure should fail validation")
	}
	a, err := s.AddElem("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddElem("a"); err == nil {
		t.Fatal("duplicate element should error")
	}
	b := s.EnsureElem("b")
	if s.EnsureElem("b") != b {
		t.Fatal("EnsureElem not idempotent")
	}
	if err := s.AddTuple("E", a, b); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTuple("E", a, b); err != nil {
		t.Fatal("duplicate tuple should be silently ignored")
	}
	if s.Rel("E").Len() != 1 {
		t.Fatalf("tuple count = %d", s.Rel("E").Len())
	}
	if !s.HasTuple("E", []int{a, b}) || s.HasTuple("E", []int{b, a}) {
		t.Fatal("HasTuple wrong")
	}
	if err := s.AddTuple("E", a); err == nil {
		t.Fatal("arity mismatch should error")
	}
	if err := s.AddTuple("G", a, b); err == nil {
		t.Fatal("unknown relation should error")
	}
	if err := s.AddTuple("E", a, 99); err == nil {
		t.Fatal("out-of-range index should error")
	}
	if s.ElemIndex("zzz") != -1 {
		t.Fatal("missing element index should be -1")
	}
}

func TestForEachWithAfterAddFact(t *testing.T) {
	s := New(edgeSig())
	for _, f := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}} {
		if err := s.AddFact("E", f[0], f[1]); err != nil {
			t.Fatal(err)
		}
	}
	a := s.ElemIndex("a")
	rowsWith := func(pos int) int { return len(s.Rel("E").RowsWith(pos, a)) }
	if got := rowsWith(0); got != 2 {
		t.Fatalf("RowsWith(0,a) = %d rows, want 2", got)
	}
	if rowsWith(1) != 0 {
		t.Fatal("RowsWith(1,a) should be empty")
	}
	// Index must refresh after adding tuples.
	if err := s.AddFact("E", "c", "a"); err != nil {
		t.Fatal(err)
	}
	if rowsWith(1) != 1 {
		t.Fatal("RowsWith stale after AddFact")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(edgeSig())
	_ = s.AddFact("E", "a", "b")
	c := s.Clone()
	_ = c.AddFact("E", "b", "a")
	if s.Rel("E").Len() != 1 || c.Rel("E").Len() != 2 {
		t.Fatal("clone not independent")
	}
}

func TestInduced(t *testing.T) {
	s := New(edgeSig())
	_ = s.AddFact("E", "a", "b")
	_ = s.AddFact("E", "b", "c")
	sub, old2new := AtomsOf(s).Induced([]int{s.ElemIndex("b"), s.ElemIndex("a")})
	if sub.Size() != 2 || sub.ElemName(0) != "a" {
		t.Fatalf("induced variables = %v, want a, b in their order", sub.Database())
	}
	if sub.NumAtoms() != 1 {
		t.Fatalf("induced atoms = %d, want 1", sub.NumAtoms())
	}
	if old2new[s.ElemIndex("c")] != -1 {
		t.Fatal("dropped element should map to -1")
	}
	if sub.ElemName(old2new[s.ElemIndex("b")]) != "b" {
		t.Fatal("name not preserved")
	}
}

func TestUnitStructure(t *testing.T) {
	u := Unit(twoRelSig())
	if u.Size() != 1 {
		t.Fatalf("unit size = %d", u.Size())
	}
	if !u.IsAllLoop(0) || !u.HasAllLoopElem() {
		t.Fatal("unit element should be all-loop")
	}
}

func TestProductCountsAndLoops(t *testing.T) {
	sig := edgeSig()
	a := New(sig)
	_ = a.AddFact("E", "0", "1")
	_ = a.AddFact("E", "1", "0")
	b := New(sig)
	_ = b.AddFact("E", "x", "y")
	p, err := Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != a.Size()*b.Size() {
		t.Fatalf("product size = %d", p.Size())
	}
	if p.Rel("E").Len() != a.Rel("E").Len()*b.Rel("E").Len() {
		t.Fatalf("product tuples = %d", p.Rel("E").Len())
	}
	// Product with the unit is "the same" structure up to renaming.
	u, err := Product(a, Unit(sig))
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != a.Size() || u.Rel("E").Len() != a.Rel("E").Len() {
		t.Fatal("product with unit changed size")
	}
}

func TestPower(t *testing.T) {
	sig := edgeSig()
	a := New(sig)
	_ = a.AddFact("E", "0", "1")
	_ = a.AddFact("E", "1", "2")
	p0, err := Power(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Size() != 1 {
		t.Fatal("A^0 should be the unit")
	}
	p2, err := Power(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Size() != 9 || p2.Rel("E").Len() != 4 {
		t.Fatalf("A^2: size=%d tuples=%d", p2.Size(), p2.Rel("E").Len())
	}
	if got := PowerSize(a, 5); got.Cmp(big.NewInt(243)) != 0 {
		t.Fatalf("PowerSize = %v", got)
	}
	if _, err := Power(a, -1); err == nil {
		t.Fatal("negative power should error")
	}
}

func TestDisjointUnionCollisions(t *testing.T) {
	sig := edgeSig()
	a := New(sig)
	_ = a.AddFact("E", "x", "y")
	b := New(sig)
	_ = b.AddFact("E", "x", "y")
	u, err := DisjointUnion(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != 4 {
		t.Fatalf("union size = %d, want 4", u.Size())
	}
	if u.Rel("E").Len() != 2 {
		t.Fatalf("union tuples = %d, want 2", u.Rel("E").Len())
	}
}

func TestPadLoops(t *testing.T) {
	sig := twoRelSig()
	a := New(sig)
	_ = a.AddFact("E", "x", "y")
	padded := PadLoops(a, 3)
	if padded.Size() != 5 {
		t.Fatalf("padded size = %d, want 5", padded.Size())
	}
	loops := 0
	for e := 0; e < padded.Size(); e++ {
		if padded.IsAllLoop(e) {
			loops++
		}
	}
	if loops != 3 {
		t.Fatalf("all-loop elements = %d, want 3", loops)
	}
	if !padded.HasAllLoopElem() {
		t.Fatal("padded should have an all-loop element")
	}
	// Original untouched.
	if a.Size() != 2 {
		t.Fatal("PadLoops mutated its input")
	}
}

func TestEqual(t *testing.T) {
	sig := edgeSig()
	a := New(sig)
	_ = a.AddFact("E", "x", "y")
	b := New(sig)
	_ = b.AddFact("E", "x", "y")
	if !Equal(a, b) {
		t.Fatal("identical structures not Equal")
	}
	_ = b.AddFact("E", "y", "x")
	if Equal(a, b) {
		t.Fatal("different structures Equal")
	}
}

func TestFreshElem(t *testing.T) {
	s := New(edgeSig())
	_, _ = s.AddElem("x")
	i := s.FreshElem("x")
	j := s.FreshElem("x")
	if s.ElemName(i) == "x" || s.ElemName(i) == s.ElemName(j) {
		t.Fatal("FreshElem produced collisions")
	}
}

// Property: |product| sizes multiply and tuple counts multiply, for random
// small structures.
func TestProductSizesProperty(t *testing.T) {
	sig := edgeSig()
	f := func(n1, n2 uint8, e1, e2 uint8) bool {
		na := int(n1%4) + 1
		nb := int(n2%4) + 1
		a := New(sig)
		for i := 0; i < na; i++ {
			s := string(rune('a' + i))
			a.EnsureElem(s)
		}
		b := New(sig)
		for i := 0; i < nb; i++ {
			s := string(rune('a' + i))
			b.EnsureElem(s)
		}
		for k := 0; k < int(e1%7); k++ {
			_ = a.AddTuple("E", k%na, (k*3+1)%na)
		}
		for k := 0; k < int(e2%7); k++ {
			_ = b.AddTuple("E", k%nb, (k*5+2)%nb)
		}
		p, err := Product(a, b)
		if err != nil {
			return false
		}
		return p.Size() == na*nb &&
			p.Rel("E").Len() == a.Rel("E").Len()*b.Rel("E").Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
