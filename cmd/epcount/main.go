// Command epcount counts the answers to an existential positive query on
// a finite structure.
//
// Usage:
//
//	epcount -query 'phi(x,y) := E(x,y) | E(y,x)' -data graph.facts
//	epcount -queryfile q.epq -data db.facts -explain -verify
//	epcount -query 'c(x,y,z) := E(x,y) & E(y,z) & E(z,x)' -explain
//
// The query is given inline (-query) or from a file (-queryfile); the
// structure is a fact file (see ParseStructure syntax), read under its
// own relations together with the query's.  -explain prints the compiled
// pipeline (normalized disjuncts, φ*, φ⁺, the structural parameters of
// the trichotomy and its verdict at bounds (1,1)) before counting; with
// no -data it prints only that and counts nothing.  -verify recounts by
// set-union enumeration of the disjuncts' answers (count.EPUnion), a path
// that shares no inclusion–exclusion, term pool or engine with the count
// it checks.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"strings"
	"time"

	epcq "repro"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
)

func main() {
	var o options
	flag.StringVar(&o.query, "query", "", "query text, e.g. 'phi(x,y) := E(x,y)'")
	flag.StringVar(&o.queryFile, "queryfile", "", "file containing the query")
	flag.StringVar(&o.dataFile, "data", "", "fact file with the structure (required unless only -explain is asked)")
	flag.BoolVar(&o.explain, "explain", false, "print the compiled pipeline before counting")
	flag.BoolVar(&o.stats, "stats", false, "print term-interning and cache statistics after counting")
	flag.BoolVar(&o.verify, "verify", false, "cross-check by set-union enumeration of the disjuncts' answers")
	flag.BoolVar(&o.timing, "time", false, "print elapsed wall-clock time")
	flag.IntVar(&o.answers, "answers", 0, "also print up to N answers (-1 = all)")
	flag.StringVar(&o.mode, "mode", "exact", "counting mode: exact | approx (approx samples hard terms, exact terms stay exact)")
	flag.Float64Var(&o.eps, "eps", 0, "approx mode: target relative error (0 = 0.1)")
	flag.Float64Var(&o.delta, "delta", 0, "approx mode: failure probability (0 = 0.05)")
	flag.Int64Var(&o.seed, "seed", 0, "approx mode: RNG seed for reproducible estimates (0 = 1)")
	flag.IntVar(&o.maxSamples, "max-samples", 0, "approx mode: sample-budget cap per component (0 = 200000)")
	flag.Parse()
	if err := run(os.Stdout, os.Stderr, o); err != nil {
		fmt.Fprintln(os.Stderr, "epcount:", err)
		os.Exit(1)
	}
}

// options carries the command's flags.
type options struct {
	query, queryFile, dataFile     string
	explain, stats, verify, timing bool
	answers                        int
	mode                           string
	eps, delta                     float64
	seed                           int64
	maxSamples                     int
}

// check rejects a flag combination before any input is read, so a
// refused invocation prints nothing on stdout.
func (o options) check() error {
	if (o.query == "") == (o.queryFile == "") {
		return fmt.Errorf("exactly one of -query or -queryfile is required")
	}
	switch o.mode {
	case "", "exact", "approx":
	default:
		return fmt.Errorf("unknown -mode %q (want exact or approx)", o.mode)
	}
	if o.verify && o.mode == "approx" {
		return fmt.Errorf("-verify cross-checks exact counts and does not apply to -mode approx")
	}
	if o.dataFile == "" && (!o.explain || o.stats || o.verify || o.timing || o.answers != 0 || o.mode == "approx") {
		return fmt.Errorf("-data is required (only -explain runs without it)")
	}
	return nil
}

func run(stdout, stderr io.Writer, o options) error {
	if err := o.check(); err != nil {
		return err
	}
	queryStr := o.query
	if o.queryFile != "" {
		raw, err := os.ReadFile(o.queryFile)
		if err != nil {
			return err
		}
		queryStr = string(raw)
	}
	q, err := epcq.ParseQuery(queryStr)
	if err != nil {
		return err
	}
	sig, err := epcq.InferSignature(q)
	if err != nil {
		return err
	}
	var b *epcq.Structure
	if o.dataFile != "" {
		if b, err = loadData(o.dataFile, sig); err != nil {
			return err
		}
		sig = b.Signature()
	}
	c, err := core.NewCounter(q, sig, engine.FPT)
	if err != nil {
		return err
	}
	if o.explain {
		fmt.Fprint(stdout, c.Explain())
	}
	if b == nil {
		return nil
	}
	start := time.Now()
	var n *big.Int
	if o.mode == "approx" {
		res, err := c.CountApprox(b, approx.Params{
			Epsilon:    o.eps,
			Delta:      o.delta,
			Seed:       o.seed,
			MaxSamples: o.maxSamples,
		})
		if err != nil {
			return err
		}
		n = res.Estimate
		fmt.Fprintf(stdout, "%v\n", n)
		fmt.Fprintf(stderr, "approx: rel-error ≤ %.4g at confidence %.4g (case %s, %d samples",
			res.RelErr, res.Confidence, res.Case.Short(), res.Samples)
		if res.Exact {
			fmt.Fprint(stderr, ", exact")
		}
		if !res.Converged {
			fmt.Fprint(stderr, ", NOT converged — raise -max-samples")
		}
		fmt.Fprintln(stderr, ")")
	} else {
		if n, err = c.Count(b); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%v\n", n)
	}
	elapsed := time.Since(start)
	if o.verify {
		comp, err := eptrans.Compile(q, sig)
		if err != nil {
			return err
		}
		v, err := count.EPUnion(comp.Disjuncts, b)
		if err != nil {
			return err
		}
		if v.Cmp(n) != 0 {
			return fmt.Errorf("verification failed: union enumeration %v vs %v", v, n)
		}
		fmt.Fprintln(stderr, "verified: union enumeration agrees")
	}
	if o.timing {
		fmt.Fprintf(stderr, "elapsed: %v (|B| = %d, %d tuples)\n", elapsed, b.Size(), b.NumTuples())
	}
	if o.stats {
		fmt.Fprint(stderr, c.Stats())
	}
	if o.answers != 0 {
		limit := max(o.answers, 0) // -1: unlimited
		_, err := c.Answers(b, limit, func(a core.Answer) bool {
			fmt.Fprintf(stdout, "  (%s)\n", strings.Join(a, ", "))
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// loadData parses the fact file under the union of its own relations and
// the query's signature qsig: a relation only the data holds is kept, and
// one only the query mentions is present and empty.  An arity clash is
// left to the compiler, which reports the atom.
func loadData(path string, qsig *epcq.Signature) (*epcq.Structure, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := epcq.ParseStructure(string(raw), nil)
	if err != nil {
		return nil, err
	}
	rels := b.Signature().Rels()
	for _, r := range qsig.Rels() {
		if !b.Signature().Has(r.Name) {
			rels = append(rels, r)
		}
	}
	if len(rels) == b.Signature().NumRels() {
		return b, nil
	}
	sig, err := epcq.NewSignature(rels...)
	if err != nil {
		return nil, err
	}
	return epcq.ParseStructure(string(raw), sig)
}
