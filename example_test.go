package epcq_test

import (
	"fmt"

	epcq "repro"
)

// The quickstart of the README: count triangle answers on a symmetric
// 3-cycle.
func ExampleCount() {
	q := epcq.MustParseQuery("triangles(x,y,z) := E(x,y) & E(y,z) & E(z,x)")
	b := epcq.MustParseStructure("E(a,b). E(b,c). E(c,a). E(b,a). E(c,b). E(a,c).", nil)
	n, err := epcq.Count(q, b)
	if err != nil {
		panic(err)
	}
	fmt.Println(n)
	// Output: 6
}

// Counting is over the liberal variables: z ranges over the whole
// universe even though it occurs in no atom (Example 2.1 of the paper).
func ExampleCount_liberalVariables() {
	q := epcq.MustParseQuery("psi(x,y,z) := E(x,y)")
	b := epcq.MustParseStructure("E(1,2). E(2,3).", nil)
	n, _ := epcq.Count(q, b)
	fmt.Println(n) // 2 edges × 3 choices for z
	// Output: 6
}

// Example 5.2 of the paper: same count on every structure, different
// variables.
func ExampleCountingEquivalent() {
	q1 := epcq.MustParseQuery("a(x,y) := E(x,y)")
	q2 := epcq.MustParseQuery("b(w,z) := E(w,z)")
	eq, _ := epcq.CountingEquivalent(q1, q2, nil)
	fmt.Println(eq)
	// Output: true
}

// The trichotomy verdict of the free 4-clique query (case 3).
func ExampleClassify() {
	q := epcq.MustParseQuery("c(x,y,z,w) := E(x,y)&E(x,z)&E(x,w)&E(y,z)&E(y,w)&E(z,w)")
	v, _ := epcq.Classify(q, nil, 1, 1)
	fmt.Println(v.Case)
	// Output: case 3: p-#Clique-hard
}

// Example 5.21 of the paper: φ⁺ of the running example has exactly two
// members, the 2-path class representative and the sentence disjunct.
func ExampleCompile() {
	q := epcq.MustParseQuery(`th(w,x,y,z) := E(x,y) & E(y,z)
		| E(z,w) & E(w,x)
		| E(w,x) & E(x,y)
		| exists a, b, c, d. E(a,b) & E(b,c) & E(c,d)`)
	c, _ := epcq.Compile(q, nil)
	fmt.Println(len(c.Plus))
	// Output: 2
}

// One compiled query counted over a batch of structures on a bounded
// worker pool; result i corresponds to structure i.
func ExampleCounter_CountBatch() {
	q := epcq.MustParseQuery("edges(x,y) := E(x,y)")
	sig, _ := epcq.InferSignature(q)
	c, _ := epcq.NewCounter(q, sig)
	batch := []*epcq.Structure{
		epcq.MustParseStructure("E(a,b).", sig),
		epcq.MustParseStructure("E(a,b). E(b,c).", sig),
		epcq.MustParseStructure("E(a,b). E(b,c). E(c,a).", sig),
	}
	ns, _ := c.CountBatch(batch)
	fmt.Println(ns)
	// Output: [1 2 3]
}

// A compiled counter answers repeated counting questions; a sentence
// disjunct that holds short-circuits the count to |B|^|lib|.
func ExampleNewCounter() {
	q := epcq.MustParseQuery("q(x,y) := E(x,y) & E(y,x) | exists u. E(u,u)")
	sig, _ := epcq.InferSignature(q)
	c, _ := epcq.NewCounter(q, sig)
	withLoop := epcq.MustParseStructure("E(1,1). E(1,2). E(2,3).", sig)
	n, _ := c.Count(withLoop)
	fmt.Println(n)
	// Output: 9
}
