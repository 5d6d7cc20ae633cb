// Quickstart: parse a query and a structure, count answers, and peek at
// the paper's machinery (counting equivalence and classification).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	epcq "repro"
)

func main() {
	// An existential positive query: pairs (x,y) connected by an edge in
	// either direction, or both endpoints of a loop-adjacent vertex.
	q, err := epcq.ParseQuery("reach(x,y) := E(x,y) | E(y,x) | exists u. E(x,u) & E(u,u) & E(u,y)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", q)

	// A small directed graph as a fact file.
	b, err := epcq.ParseStructure(`
		universe a, b, c, d.
		E(a,b). E(b,c). E(c,c). E(c,d).
	`, nil)
	if err != nil {
		log.Fatal(err)
	}

	// One-shot counting (compiles the Theorem 3.1 pipeline internally and
	// counts each φ⁺ member with the FPT algorithm of Theorem 2.11).
	n, err := epcq.Count(q, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("answers over lib(φ) = {x,y}: %v\n\n", n)

	// For repeated counting, compile once.
	sig, err := epcq.InferSignature(q)
	if err != nil {
		log.Fatal(err)
	}
	counter, err := epcq.NewCounter(q, sig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(counter.Explain())

	// Counting equivalence (Theorem 5.4): do two pp-queries agree on
	// every structure?
	q1 := epcq.MustParseQuery("p(x,y) := E(x,y)")
	q2 := epcq.MustParseQuery("p(w,z) := E(w,z)")
	eq, err := epcq.CountingEquivalent(q1, q2, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nE(x,y) ~counting~ E(w,z): %v (Example 5.2)\n", eq)

	// Trichotomy classification (Theorem 3.2).
	v, err := epcq.Classify(q, nil, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("classification:", v)
}
