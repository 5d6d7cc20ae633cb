// Motif counting and the hardness frontier: counting k-cliques through
// answer counting (the case-3 reduction of Theorem 3.2), next to genuinely
// tractable motifs (paths, which sit in case 1).
//
// The example encodes a random graph with a planted clique as a structure
// over {E/2} and counts motifs by querying; k-clique counts are answers
// divided by k!.
//
// Run with: go run ./examples/motifs
package main

import (
	"fmt"
	"log"
	"math/big"
	"math/rand"
	"time"

	epcq "repro"
)

// randomGraph builds a symmetric edge structure for G(n,p) plus a planted
// k-clique.
func randomGraph(n int, p float64, planted int, seed int64) *epcq.Structure {
	sig, err := epcq.NewSignature(epcq.RelSym{Name: "E", Arity: 2})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	s := epcq.NewStructure(sig)
	name := func(i int) string { return fmt.Sprintf("v%d", i) }
	addEdge := func(i, j int) {
		_ = s.AddFact("E", name(i), name(j))
		_ = s.AddFact("E", name(j), name(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				addEdge(i, j)
			}
		}
	}
	perm := rng.Perm(n)
	for a := 0; a < planted; a++ {
		for b := a + 1; b < planted; b++ {
			addEdge(perm[a], perm[b])
		}
	}
	return s
}

// cliqueQuery builds the free k-clique query ⋀_{i<j} E(xi,xj).
func cliqueQuery(k int) epcq.Query {
	src := fmt.Sprintf("clique%d(", k)
	for i := 1; i <= k; i++ {
		if i > 1 {
			src += ","
		}
		src += fmt.Sprintf("x%d", i)
	}
	src += ") := "
	first := true
	for i := 1; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			if !first {
				src += " & "
			}
			first = false
			src += fmt.Sprintf("E(x%d,x%d)", i, j)
		}
	}
	return epcq.MustParseQuery(src)
}

func factorial(k int) *big.Int {
	f := big.NewInt(1)
	for i := 2; i <= k; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
}

func main() {
	g := randomGraph(40, 0.25, 6, 42)
	fmt.Printf("graph: %d vertices, %d directed edge tuples\n\n", g.Size(), g.NumTuples())

	// Tractable motif: paths with quantified interior (case 1).
	path := epcq.MustParseQuery("p(s,t) := exists u, v. E(s,u) & E(u,v) & E(v,t)")
	start := time.Now()
	n, err := epcq.Count(path, g)
	if err != nil {
		log.Fatal(err)
	}
	v, _ := epcq.Classify(path, nil, 1, 1)
	fmt.Printf("3-step reach pairs: %v in %v [%v]\n\n", n, time.Since(start).Round(time.Microsecond), v.Case)

	// Hard motifs: k-cliques via the case-3 query family.
	fmt.Printf("%-3s  %-14s  %-12s  %s\n", "k", "#k-cliques", "time", "trichotomy case")
	for k := 2; k <= 5; k++ {
		q := cliqueQuery(k)
		counter, err := epcq.NewCounter(q, g.Signature())
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		answers, err := counter.Count(g)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		cliques := new(big.Int).Quo(answers, factorial(k))
		verdict, err := counter.Classify(1, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-3d  %-14v  %-12v  %v\n", k, cliques, elapsed.Round(time.Microsecond), verdict.Case)
	}
	fmt.Println("\nThe growth of the k-clique column's cost with k is the point:")
	fmt.Println("free clique queries have contract graph K_k, so by Theorem 3.2")
	fmt.Println("their counting problem is p-#Clique-hard — no FPT algorithm is")
	fmt.Println("expected, and the engine's cost necessarily climbs with k.")
}
