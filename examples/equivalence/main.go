// The equivalence theorem in action (Theorem 3.1, Examples 4.2, 4.3 and
// 5.21): compile the paper's running example to φ⁺, show the cancelled
// inclusion–exclusion expansion, and recover individual pp counts from
// oracle access to the ep-query alone.
//
// Run with: go run ./examples/equivalence
package main

import (
	"fmt"
	"log"
	"math/big"

	epcq "repro"
)

func main() {
	// Example 5.21's query θ: the Example 4.2 disjuncts plus a sentence
	// disjunct θ1 = ∃a,b,c,d. E(a,b) ∧ E(b,c) ∧ E(c,d).
	theta := epcq.MustParseQuery(`th(w,x,y,z) := E(x,y) & E(y,z)
		| E(z,w) & E(w,x)
		| E(w,x) & E(x,y)
		| exists a, b, c, d. E(a,b) & E(b,c) & E(c,d)`)

	compiled, err := epcq.Compile(theta, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query θ:", theta)
	fmt.Printf("\nnormalized disjuncts: %d free + %d sentence\n",
		len(compiled.Free), len(compiled.Sentences))
	fmt.Println("\nθ*af (inclusion–exclusion after cancellation, Prop 5.16):")
	for _, t := range compiled.Star {
		fmt.Printf("  %+d × %v\n", t.Coeff, t.Formula)
	}
	fmt.Println("\nθ⁻af (terms not entailing a sentence disjunct):")
	for _, t := range compiled.Minus {
		fmt.Printf("  %+d × %v\n", t.Coeff, t.Formula)
	}
	fmt.Printf("\nθ⁺ (the paper's Example 5.21 predicts {φ1, θ1}): %d formulas\n", len(compiled.Plus))
	for i, p := range compiled.Plus {
		fmt.Printf("  ψ%d = %v\n", i+1, p)
	}

	// Now exercise both slice reductions on a concrete structure.
	b, err := epcq.ParseStructure("E(1,2). E(2,3). E(3,1). E(3,3).", nil)
	if err != nil {
		log.Fatal(err)
	}
	counter, err := epcq.NewCounter(theta, b.Signature())
	if err != nil {
		log.Fatal(err)
	}
	total, err := counter.Count(b)
	if err != nil {
		log.Fatal(err)
	}
	maxCount := new(big.Int).Exp(big.NewInt(int64(b.Size())), big.NewInt(4), nil)
	fmt.Printf("\n|θ(B)| on B (4 edges, one loop): %v (max possible %v)\n", total, maxCount)

	fmt.Println("\nbackward reduction (Thm 5.20 / Appendix A): recover each |ψ(B)|")
	fmt.Println("using ONLY oracle calls to |θ(·)|:")
	for i, p := range counter.Compiled.Plus {
		direct, err := counter.CountPP(p, b)
		if err != nil {
			log.Fatal(err)
		}
		viaOracle, err := counter.CountPPViaOracle(p, b)
		if err != nil {
			log.Fatal(err)
		}
		status := "MISMATCH"
		if direct.Cmp(viaOracle) == 0 {
			status = "exact"
		}
		fmt.Printf("  ψ%d: direct %v, via ep-oracle %v (%s)\n", i+1, direct, viaOracle, status)
	}

	// Counting equivalence during cancellation (Example 4.2's engine).
	phi1 := epcq.MustParseQuery("p(w,x,y,z) := E(x,y) & E(y,z)")
	phi2 := epcq.MustParseQuery("p(w,x,y,z) := E(z,w) & E(w,x)")
	eq, err := epcq.CountingEquivalent(phi1, phi2, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nφ1 ~counting~ φ2 (the merge that gives coefficient 3): %v\n", eq)
}
