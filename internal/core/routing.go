package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/big"
	"sync"

	"repro/internal/approx"
	"repro/internal/classify"
	"repro/internal/structure"
)

// Trichotomy-driven routing: every interned φ⁻af term is classified at
// compile time (classify.Read copies the widths off the plan's shape,
// which the fingerprint-keyed plan cache holds) against the route bounds,
// and hard terms (cases 2/3 of Theorem 3.2) get an estimator over the
// same shape alongside the exact plan.  The default
// Count path is untouched — exact execution stays bit-identical — while
// CountApprox routes each term to the cheapest sound executor: exact
// memoized counting for FPT terms, sampling for hard terms.

// DefaultRouteWCore and DefaultRouteWContract are the width bounds the
// router classifies terms against: (1, 1) matches the paper-canonical
// bounds Explain reports, putting every query whose φ⁻af cores exceed
// treewidth 1 into the hard regime.
const (
	DefaultRouteWCore     = 1
	DefaultRouteWContract = 1
)

// routeTerms classifies every compiled term against the route bounds and
// attaches approximate plans to the hard ones.  Called once, from
// NewCounter.
func (c *Counter) routeTerms() {
	for i := range c.terms {
		t := &c.terms[i]
		t.report = classify.Read(t.formula, t.plan.Shape())
		t.caseOf = t.report.CaseFor(DefaultRouteWCore, DefaultRouteWContract)
		if t.caseOf.Hard() {
			t.est = approx.New(t.formula)
		}
		if t.caseOf > c.hardest {
			c.hardest = t.caseOf
		}
	}
	if c.hardest == 0 {
		c.hardest = classify.CaseFPT
	}
}

// HardestCase returns the worst trichotomy case among the counter's
// terms under the route bounds — the admission-control signal:
// CaseFPT means every term has an exact FPT executor.
func (c *Counter) HardestCase() classify.Case { return c.hardest }

// TermRoute describes one term's routing decision, for tests and
// introspection.
type TermRoute struct {
	// FP is the term's canonical fingerprint ("" if unlabeled).
	FP string
	// Case is the term's trichotomy case under the route bounds.
	Case classify.Case
	// CoreTreewidth / ContractTreewidth are the measured widths.
	CoreTreewidth     int
	ContractTreewidth int
	// Approx reports whether the term is routed to the sampler: it
	// carries an approx.Estimator, which builds its per-component
	// structures on the term's first approximate count, so an exact count
	// never does.
	Approx bool
}

// Routes returns the per-term routing table.
func (c *Counter) Routes() []TermRoute {
	out := make([]TermRoute, len(c.terms))
	for i := range c.terms {
		t := &c.terms[i]
		out[i] = TermRoute{
			FP:                t.fp,
			Case:              t.caseOf,
			CoreTreewidth:     t.report.CoreTreewidth,
			ContractTreewidth: t.report.ContractTreewidth,
			Approx:            t.est != nil,
		}
	}
	return out
}

// HardExactError is the typed admission-control rejection: exact
// execution of a hard-classified query was refused because the structure
// exceeds the configured size threshold.  Callers switch to approx mode
// or shrink the instance.
type HardExactError struct {
	// Case is the query's hardest trichotomy case.
	Case classify.Case
	// Tuples is the structure's tuple count; Limit the admission bound.
	Tuples, Limit int
}

func (e *HardExactError) Error() string {
	return fmt.Sprintf("core: exact execution rejected: query is %s and structure has %d tuples (> limit %d); use approx mode",
		e.Case.Short(), e.Tuples, e.Limit)
}

// AdmitExact checks the admission rule for exact execution on b: queries
// whose hardest term is in the hard regime (cases 2/3) are rejected with
// a *HardExactError when b has more than maxTuples tuples.  maxTuples ≤ 0
// disables the rule.
func (c *Counter) AdmitExact(b *structure.Structure, maxTuples int) error {
	if maxTuples <= 0 || !c.hardest.Hard() {
		return nil
	}
	if t := b.NumTuples(); t > maxTuples {
		return &HardExactError{Case: c.hardest, Tuples: t, Limit: maxTuples}
	}
	return nil
}

// ApproxResult is one routed approximate count: the signed-sum estimate
// with its combined error bound and the routing/budget telemetry.
type ApproxResult struct {
	// Estimate is the point estimate of |φ(B)|.
	Estimate *big.Int
	// RelErr is the achieved relative half-width: the hard terms'
	// absolute half-widths, scaled by their coefficients, summed and
	// divided by |Estimate|.  0 when the count is exact.
	RelErr float64
	// Confidence is 1-δ when any term was sampled, 1 otherwise.
	Confidence float64
	// Samples is the total sampling budget spent across hard terms.
	Samples int
	// Case is the query's hardest trichotomy case (the routing driver).
	Case classify.Case
	// Exact reports that every term resolved exactly (FPT terms, plus
	// hard terms answered from the session's count memo or whose
	// components all collapsed to exact factors).
	Exact bool
	// Converged reports whether every sampled term met its ε share
	// within its sample cap.
	Converged bool
	// ExactTerms / SampledTerms split the terms by executed path.
	ExactTerms, SampledTerms int
}

// termSeed derives a per-term RNG seed from the request seed, the term's
// fingerprint, and its index, so terms sample independently while the
// whole count stays reproducible for a fixed request seed.
func termSeed(seed int64, fp string, i int) int64 {
	if seed == 0 {
		seed = 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s", seed, i, fp)
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}

// CountApprox is CountApproxCtx with a background context.
func (c *Counter) CountApprox(b *structure.Structure, prm approx.Params) (ApproxResult, error) {
	return c.CountApproxCtx(context.Background(), b, prm)
}

// CountApproxCtx counts the query with trichotomy-driven routing: FPT
// terms run the exact memoized executor (bit-identical to Count), hard
// terms run the sampling estimator with an (ε, δ/h) share of the request
// budget (h = number of hard terms, so the union bound keeps the overall
// confidence at 1-δ).  Each hard term is estimated to relative error ε;
// the combined bound is exact for same-sign sums and reported honestly
// (RelErr) when inclusion–exclusion cancellation amplifies it.  The same
// Params.Seed always yields the same estimate.
//
// A hard term whose exact count b's session already memoizes at b's
// version answers with that count and no draw (memo first), and the
// δ/h split still counts it, so the other terms' estimates do not
// depend on what the memo holds.  A sampled term borrows its
// components' samplers from the session's pools (engine.Session.Pool,
// keyed by the term's fingerprint and the component), so they stay warm
// across requests and die with the version.
func (c *Counter) CountApproxCtx(ctx context.Context, b *structure.Structure, prm approx.Params) (ApproxResult, error) {
	sess, err := c.sessionFor(b)
	if err != nil {
		return ApproxResult{}, err
	}
	full, err := c.sentenceCount(ctx, sess)
	if err != nil {
		return ApproxResult{}, err
	}
	res := ApproxResult{Case: c.hardest, Confidence: 1, Exact: true, Converged: true}
	if full != nil {
		res.Estimate = structure.PowerSize(b, len(c.query.Lib))
		return res, nil
	}
	nHard := 0
	for i := range c.terms {
		if c.terms[i].est != nil {
			nHard++
		}
	}
	total := new(big.Int)
	absErr := 0.0
	sampledAny := false
	tmp := new(big.Int)
	for i := range c.terms {
		t := &c.terms[i]
		if t.est == nil {
			v, err := c.countTerm(ctx, t, sess)
			if err != nil {
				return ApproxResult{}, err
			}
			total.Add(total, tmp.Mul(t.coeff, v))
			res.ExactTerms++
			continue
		}
		if v, ok := sess.Memoized(t.fp); ok {
			// Memo first: the session already holds the term's exact
			// count at this version, so no draw is made.
			total.Add(total, tmp.Mul(t.coeff, v))
			res.ExactTerms++
			continue
		}
		p := prm
		p.Delta = effDelta(prm.Delta) / float64(nHard)
		p.Seed = termSeed(prm.Seed, t.fp, i)
		r, err := t.est.CountIn(ctx, b, p, func(comp int) *sync.Pool { return sess.Pool(t.fp, comp) })
		if err != nil {
			return ApproxResult{}, err
		}
		c.approxCounts.Add(1)
		res.SampledTerms++
		res.Samples += r.Samples
		res.Converged = res.Converged && r.Converged
		if !r.Exact {
			res.Exact = false
			sampledAny = true
		}
		total.Add(total, tmp.Mul(t.coeff, r.Estimate))
		coefAbs, _ := new(big.Float).SetInt(tmp.Abs(t.coeff)).Float64()
		absErr += coefAbs * r.AbsErr
	}
	res.Estimate = total
	if sampledAny {
		res.Confidence = 1 - effDelta(prm.Delta)
		totF, _ := new(big.Float).SetInt(tmp.Abs(total)).Float64()
		switch {
		case absErr == 0:
			res.RelErr = 0
		case totF == 0:
			// The signed sum cancelled to zero while carrying sampling
			// error: no relative bound exists; report full uncertainty.
			res.RelErr = 1
		default:
			res.RelErr = absErr / totF
		}
	}
	return res, nil
}

// effDelta resolves the request δ the same way approx.Params does, so
// the reported confidence matches the per-term budget split.
func effDelta(d float64) float64 {
	if d <= 0 || d >= 1 {
		return 0.05
	}
	return d
}
