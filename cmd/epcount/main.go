// Command epcount counts the answers to an existential positive query on
// a finite structure.
//
// Usage:
//
//	epcount -query 'phi(x,y) := E(x,y) | E(y,x)' -data graph.facts
//	epcount -queryfile q.epq -data db.facts -explain -verify
//
// The query is given inline (-query) or from a file (-queryfile); the
// structure is a fact file (see ParseStructure syntax).  -explain prints
// the compiled pipeline (normalized disjuncts, φ*, φ⁺ and the structural
// parameters of the trichotomy) before counting; -verify recounts by
// set-union enumeration of the disjuncts' answers (count.EPUnion), a path
// that shares no inclusion–exclusion, term pool or engine with the count
// it checks.
package main

import (
	"flag"
	"fmt"
	"math/big"
	"os"
	"strings"
	"time"

	epcq "repro"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
)

func main() {
	var (
		queryStr  = flag.String("query", "", "query text, e.g. 'phi(x,y) := E(x,y)'")
		queryFile = flag.String("queryfile", "", "file containing the query")
		dataFile  = flag.String("data", "", "fact file with the structure (required)")
		explain   = flag.Bool("explain", false, "print the compiled pipeline before counting")
		stats     = flag.Bool("stats", false, "print term-interning and cache statistics after counting")
		verify    = flag.Bool("verify", false, "cross-check by set-union enumeration of the disjuncts' answers")
		timing    = flag.Bool("time", false, "print elapsed wall-clock time")
		answers   = flag.Int("answers", 0, "also print up to N answers (-1 = all)")
		mode      = flag.String("mode", "exact", "counting mode: exact | approx (approx samples hard terms, exact terms stay exact)")
		eps       = flag.Float64("eps", 0, "approx mode: target relative error (0 = 0.1)")
		delta     = flag.Float64("delta", 0, "approx mode: failure probability (0 = 0.05)")
		seed      = flag.Int64("seed", 0, "approx mode: RNG seed for reproducible estimates (0 = 1)")
		maxS      = flag.Int("max-samples", 0, "approx mode: sample-budget cap per component (0 = 200000)")
	)
	flag.Parse()
	ao := approxOpts{mode: *mode, eps: *eps, delta: *delta, seed: *seed, maxSamples: *maxS}
	if err := run(*queryStr, *queryFile, *dataFile, *explain, *stats, *verify, *timing, *answers, ao); err != nil {
		fmt.Fprintln(os.Stderr, "epcount:", err)
		os.Exit(1)
	}
}

// approxOpts carries the -mode/-eps/-delta/-seed/-max-samples flags.
type approxOpts struct {
	mode       string
	eps, delta float64
	seed       int64
	maxSamples int
}

func run(queryStr, queryFile, dataFile string, explain, stats, verify, timing bool, answers int, ao approxOpts) error {
	if (queryStr == "") == (queryFile == "") {
		return fmt.Errorf("exactly one of -query or -queryfile is required")
	}
	if dataFile == "" {
		return fmt.Errorf("-data is required")
	}
	if queryFile != "" {
		raw, err := os.ReadFile(queryFile)
		if err != nil {
			return err
		}
		queryStr = string(raw)
	}
	q, err := epcq.ParseQuery(queryStr)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(dataFile)
	if err != nil {
		return err
	}
	// Parse the structure against the query's signature so that relations
	// the query mentions but the data omits are present (and empty).
	sig, err := epcq.InferSignature(q)
	if err != nil {
		return err
	}
	b, err := epcq.ParseStructure(string(raw), sig)
	if err != nil {
		return err
	}
	c, err := core.NewCounter(q, sig, engine.FPT)
	if err != nil {
		return err
	}
	if explain {
		fmt.Print(c.Explain())
	}
	start := time.Now()
	var n *big.Int
	switch ao.mode {
	case "", "exact":
		n, err = c.Count(b)
		if err != nil {
			return err
		}
		fmt.Printf("%v\n", n)
	case "approx":
		res, aerr := c.CountApprox(b, approx.Params{
			Epsilon:    ao.eps,
			Delta:      ao.delta,
			Seed:       ao.seed,
			MaxSamples: ao.maxSamples,
		})
		if aerr != nil {
			return aerr
		}
		n = res.Estimate
		fmt.Printf("%v\n", n)
		fmt.Fprintf(os.Stderr, "approx: rel-error ≤ %.4g at confidence %.4g (case %s, %d samples",
			res.RelErr, res.Confidence, res.Case.Short(), res.Samples)
		if res.Exact {
			fmt.Fprint(os.Stderr, ", exact")
		}
		if !res.Converged {
			fmt.Fprint(os.Stderr, ", NOT converged — raise -max-samples")
		}
		fmt.Fprintln(os.Stderr, ")")
	default:
		return fmt.Errorf("unknown -mode %q (want exact or approx)", ao.mode)
	}
	elapsed := time.Since(start)
	if verify {
		if ao.mode == "approx" {
			return fmt.Errorf("-verify cross-checks exact counts and does not apply to -mode approx")
		}
		v, err := count.EPUnion(c.Compiled.Disjuncts, b)
		if err != nil {
			return err
		}
		if v.Cmp(n) != 0 {
			return fmt.Errorf("verification failed: union enumeration %v vs %v", v, n)
		}
		fmt.Fprintln(os.Stderr, "verified: union enumeration agrees")
	}
	if timing {
		fmt.Fprintf(os.Stderr, "elapsed: %v (|B| = %d, %d tuples)\n", elapsed, b.Size(), b.NumTuples())
	}
	if stats {
		fmt.Fprint(os.Stderr, c.Stats())
	}
	if answers != 0 {
		limit := answers
		if limit < 0 {
			limit = 0 // unlimited
		}
		_, err := c.Answers(b, limit, func(a core.Answer) bool {
			fmt.Printf("  (%s)\n", strings.Join(a, ", "))
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}
