package epcq_test

import (
	"fmt"
	"strings"

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
// members, the 2-path class representative φ1 and the sentence disjunct
// θ1.  The backward reduction of Theorem 5.20 (Appendix A) then recovers
// each member's count from oracle calls to |θ(·)| alone.
func ExampleCompile() {
	theta := epcq.MustParseQuery(`th(w,x,y,z) := E(x,y) & E(y,z)
		| E(z,w) & E(w,x)
		| E(w,x) & E(x,y)
		| exists a, b, c, d. E(a,b) & E(b,c) & E(c,d)`)
	compiled, err := epcq.Compile(theta, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("normalized disjuncts: %d free + %d sentence\n", len(compiled.Free), len(compiled.Sentences))
	fmt.Println("θ*af (inclusion–exclusion after cancellation, Prop 5.16):")
	for _, t := range compiled.Star {
		fmt.Printf("  %+d × %v\n", t.Coeff, t.Formula)
	}
	fmt.Println("θ⁻af (terms not entailing a sentence disjunct):")
	for _, t := range compiled.Minus {
		fmt.Printf("  %+d × %v\n", t.Coeff, t.Formula)
	}
	fmt.Printf("θ⁺ = {φ1, θ1}: %d formulas\n", len(compiled.Plus))
	for i, p := range compiled.Plus {
		fmt.Printf("  ψ%d = %v\n", i+1, p)
	}

	b := epcq.MustParseStructure("E(1,2). E(2,3). E(3,1). E(3,3).", nil)
	total, err := epcq.Count(theta, b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("|θ(B)| on B (4 edges, one loop): %v of |B|^4 = 81\n", total)
	fmt.Println("backward reduction (Thm 5.20): each |ψ(B)| from oracle calls to |θ(·)| only")
	for i, p := range compiled.Plus {
		direct, err := epcq.CountPP(p, b)
		if err != nil {
			panic(err)
		}
		viaOracle, err := epcq.CountPPViaOracle(compiled, p, b)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  ψ%d: direct %v, via ep-oracle %v\n", i+1, direct, viaOracle)
	}

	// The merge that gives φ1 its coefficient 3 (Example 4.2).
	phi1 := epcq.MustParseQuery("p(w,x,y,z) := E(x,y) & E(y,z)")
	phi2 := epcq.MustParseQuery("p(w,x,y,z) := E(z,w) & E(w,x)")
	eq, err := epcq.CountingEquivalent(phi1, phi2, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("φ1 ~counting~ φ2:", eq)
	// Output:
	// normalized disjuncts: 3 free + 1 sentence
	// θ*af (inclusion–exclusion after cancellation, Prop 5.16):
	//   +3 × (w,x,y,z) | E(x,y) & E(y,z)
	//   -2 × (w,x,y,z) | E(x,y) & E(y,z) & E(w,x)
	// θ⁻af (terms not entailing a sentence disjunct):
	//   +3 × (w,x,y,z) | E(x,y) & E(y,z)
	// θ⁺ = {φ1, θ1}: 2 formulas
	//   ψ1 = (w,x,y,z) | E(x,y) & E(y,z)
	//   ψ2 = (w,x,y,z) | exists d_1. exists c_2. exists b_3. exists a_4. E(a_4,b_3) & E(b_3,c_2) & E(c_2,d_1)
	// |θ(B)| on B (4 edges, one loop): 81 of |B|^4 = 81
	// backward reduction (Thm 5.20): each |ψ(B)| from oracle calls to |θ(·)| only
	//   ψ1: direct 18, via ep-oracle 18
	//   ψ2: direct 81, via ep-oracle 81
	// φ1 ~counting~ φ2: true
}

// The compiled pipeline of a three-disjunct query, as epcount -explain
// prints it: the disjuncts, φ*af after cancellation, φ⁺ with the core and
// contract treewidth of each member, the trichotomy verdict at bounds
// (1,1), and the counter's telemetry (less the batch width, which is
// GOMAXPROCS).
func ExampleCounter_Explain() {
	q := epcq.MustParseQuery("reach(x,y) := E(x,y) | E(y,x) | exists u. E(x,u) & E(u,u) & E(u,y)")
	b := epcq.MustParseStructure("universe a, b, c, d. E(a,b). E(b,c). E(c,c). E(c,d).", nil)
	n, err := epcq.Count(q, b)
	if err != nil {
		panic(err)
	}
	fmt.Println("answers over lib(φ) = {x,y}:", n)

	// Count compiled every plan already, so this counter shares all six.
	c, err := epcq.NewCounter(q, b.Signature())
	if err != nil {
		panic(err)
	}
	for _, line := range strings.SplitAfter(c.Explain(), "\n") {
		if !strings.HasPrefix(line, "batch width:") {
			fmt.Print(line)
		}
	}
	v, err := epcq.Classify(q, nil, 1, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("Classify:", v)
	// Output:
	// answers over lib(φ) = {x,y}: 8
	// query: reach(x,y) := ((E(x,y) | E(y,x)) | exists u. ((E(x,u) & E(u,u)) & E(u,y)))
	// signature: {E/2}
	// normalized disjuncts: 3 (3 free, 0 sentence)
	//   ψ1 (free): (x,y) | E(x,y)
	//   ψ2 (free): (x,y) | E(y,x)
	//   ψ3 (free): (x,y) | exists u_1. E(x,u_1) & E(u_1,u_1) & E(u_1,y)
	// φ*af terms (after cancellation): 6
	//   +2 × (x,y) | E(x,y)
	//   -1 × (x,y) | E(x,y) & E(y,x)
	//   +1 × (x,y) | exists u_1. E(x,u_1) & E(u_1,u_1) & E(u_1,y)
	//   -1 × (x,y) | exists u_1~1. E(x,y) & E(x,u_1~1) & E(u_1~1,u_1~1) & E(u_1~1,y)
	//   -1 × (x,y) | exists u_1~1. E(y,x) & E(x,u_1~1) & E(u_1~1,u_1~1) & E(u_1~1,y)
	//   +1 × (x,y) | exists u_1~1. E(x,y) & E(y,x) & E(x,u_1~1) & E(u_1~1,u_1~1) & E(u_1~1,y)
	// φ⁻af terms (surviving sentence-entailment filter): 6
	// φ⁺ size: 6
	// classification vs bounds (1,1): case 2: p-Clique-interreducible (contraction condition only) (max core tw 2 vs bound 1, max contract tw 1 vs bound 1)
	//   φ⁺[0]: core tw 1, contract tw 1, ∃-components 0 (max interface 0)
	//   φ⁺[1]: core tw 1, contract tw 1, ∃-components 0 (max interface 0)
	//   φ⁺[2]: core tw 1, contract tw 1, ∃-components 1 (max interface 2)
	//   φ⁺[3]: core tw 2, contract tw 1, ∃-components 1 (max interface 2)
	//   φ⁺[4]: core tw 2, contract tw 1, ∃-components 1 (max interface 2)
	//   φ⁺[5]: core tw 2, contract tw 1, ∃-components 1 (max interface 2)
	// term pool: 7 raw IE terms → 6 unique cores (0 cancelled, 0 merged pre-core)
	// plans: 6 (one per unique surviving term; 6 shared via fingerprint cache)
	// count cache: 0 hits, 0 misses
	// routing vs bounds (1,1): clique — 3 exact term(s), 3 approx term(s); approx evals: 0
	// Classify: case 2: p-Clique-interreducible (contraction condition only) (max core tw 2 vs bound 1, max contract tw 1 vs bound 1)
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
