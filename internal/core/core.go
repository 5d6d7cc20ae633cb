package core

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/approx"
	"repro/internal/classify"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/logic"
	"repro/internal/pp"
	"repro/internal/structure"
	"repro/internal/term"
)

// Counter is a compiled ep-query ready for repeated counting: its term
// list and what the count path reads beside it.  It keeps nothing else
// of the front end's output.
type Counter struct {
	query logic.Query
	sig   *structure.Signature
	// pool is the canonical term pool's interning counters, taken at
	// construction.
	pool term.Stats

	// terms holds the unique φ⁻af counting classes, each carrying its
	// canonical fingerprint, merged coefficient, and compiled
	// engine.Plan: the formula-dependent work — cores, ∃-components,
	// tree decompositions, constraint schemes — is paid once at
	// construction, and shared across Counters through the fingerprint-
	// keyed plan cache.  Structure-dependent work (constraint tables,
	// per-fingerprint counts) lives in per-structure engine.Sessions
	// shared across terms, repeated counts, and batches.
	terms []compiledTerm
	// sentences holds one plan per sentence disjunct, counting 0 or
	// |B|^|lib| (its liberal variables are isolated), memoized per
	// session under its fingerprint like a term's count.
	sentences []compiledTerm
	// sharedPlans counts terms whose plan was already in the
	// fingerprint-keyed cache at construction.
	sharedPlans int

	// Count-cache telemetry: per-fingerprint session memo hits/misses,
	// surfaced through Stats/Explain.
	countHits   atomic.Uint64
	countMisses atomic.Uint64

	// workers is the width of the CountBatch fan-out over independent
	// structures (0 = GOMAXPROCS); see WithWorkers.  A single count runs
	// on its caller's goroutine and never reads it.  Atomic so that
	// long-lived serving processes may retune it while counts are in
	// flight (the race-free snapshot Stats relies on).
	workers atomic.Int32

	// Routing state (see routing.go): the worst trichotomy case among
	// the terms under the route bounds, and the number of approximate
	// term evaluations performed so far.
	hardest      classify.Case
	approxCounts atomic.Uint64
}

// compiledTerm is one unique φ⁻af counting class, ready to execute.
type compiledTerm struct {
	formula pp.PP
	fp      string // canonical counting-class fingerprint
	coeff   *big.Int
	plan    engine.Plan

	// Routing state (see routing.go): the classification Report, the
	// trichotomy case under the route bounds, and — for hard terms — the
	// estimator over the plan's shape.
	report classify.Report
	caseOf classify.Case
	est    *approx.Estimator
}

// WithWorkers sets the width of the counter's batch fan-out — how many
// structures of a CountBatch are counted at once (n ≤ 0 restores the
// default, GOMAXPROCS) — and returns the counter for chaining.  Each
// count of the batch, like every single count, runs on one goroutine.
// Safe to call concurrently with in-flight counting (in-flight calls
// keep the width they started with; subsequent calls see the new one).
func (c *Counter) WithWorkers(n int) *Counter {
	if n < 0 {
		n = 0
	}
	c.workers.Store(int32(n))
	return c
}

// batchWidth resolves the configured fan-out width.
func (c *Counter) batchWidth() int {
	if n := int(c.workers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// NewCounter compiles the query over the signature.  Passing a nil
// signature infers it from the query's atoms.  Each unique φ⁻af counting
// class gets exactly one engine plan, resolved through the fingerprint-
// keyed plan cache (counting-equivalent terms of other Counters share
// it).  eng must be engine.FPT or engine.Auto, which both name the one
// exact executor.
func NewCounter(q logic.Query, sig *structure.Signature, eng engine.Name) (*Counter, error) {
	if sig == nil {
		var err error
		sig, err = eptrans.InferStructSignature(q)
		if err != nil {
			return nil, err
		}
	}
	c, err := eptrans.Compile(q, sig)
	if err != nil {
		return nil, err
	}
	counter := &Counter{query: q, sig: sig, pool: c.Pool.Stats()}
	counter.terms = make([]compiledTerm, 0, len(c.Minus))
	for _, t := range c.Minus {
		plan, hit, err := engine.CompileKeyed(t.Formula, t.FP, eng)
		if err != nil {
			return nil, err
		}
		if hit {
			counter.sharedPlans++
		}
		counter.terms = append(counter.terms, compiledTerm{
			formula: t.Formula,
			fp:      t.FP,
			coeff:   t.Coeff,
			plan:    plan,
		})
	}
	for _, th := range c.Sentences {
		fp, err := term.Fingerprint(th)
		if err != nil {
			return nil, err
		}
		plan, _, err := engine.CompileKeyed(th, fp, eng)
		if err != nil {
			return nil, err
		}
		counter.sentences = append(counter.sentences, compiledTerm{formula: th, fp: fp, plan: plan})
	}
	counter.routeTerms()
	return counter, nil
}

// Query returns the query the counter was compiled from.
func (c *Counter) Query() logic.Query { return c.query }

// Signature returns the signature the counter counts over.
func (c *Counter) Signature() *structure.Signature { return c.sig }

// Count returns |φ(B)|: the number of assignments of the liberal
// variables satisfying the query on b.  This is the paper's pipeline:
// sentence disjuncts short-circuit to |B|^|lib|; otherwise the signed sum
// over φ⁻af is evaluated with the exact engine.
func (c *Counter) Count(b *structure.Structure) (*big.Int, error) {
	return c.CountInto(context.Background(), b, new(big.Int))
}

// CountCtx is Count under a context: the executor polls ctx while
// counting and aborts with its error (typically context.Canceled or
// context.DeadlineExceeded) once it fires.  Cancellation is cooperative
// — latency is bounded by the executor's poll granularity — and never
// poisons the per-session count memo: a cancelled term's entry is
// evicted so later calls recompute.  Serving layers thread per-request
// deadlines through here.
func (c *Counter) CountCtx(ctx context.Context, b *structure.Structure) (*big.Int, error) {
	return c.CountInto(ctx, b, new(big.Int))
}

// sessionFor validates b against the compiled signature and returns its
// shared engine session.
func (c *Counter) sessionFor(b *structure.Structure) (*engine.Session, error) {
	if !c.sig.Equal(b.Signature()) {
		return nil, fmt.Errorf("core: query signature %v differs from structure signature %v",
			c.sig, b.Signature())
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return engine.SessionFor(b), nil
}

// sentenceCount returns the count of the first sentence disjunct that
// holds on the session's structure — |B|^|lib|, the Theorem 3.1
// short-circuit — or nil if none holds.  Each is a term counted under
// ctx like any other (0 when it fails); the value is the memo's.
func (c *Counter) sentenceCount(ctx context.Context, sess *engine.Session) (*big.Int, error) {
	for i := range c.sentences {
		v, err := c.countTerm(ctx, &c.sentences[i], sess)
		if err != nil {
			return nil, err
		}
		if v.Sign() != 0 {
			return v, nil
		}
	}
	return nil, nil
}

// CountBatch counts the query on every structure of the batch, spreading
// the structures over a bounded pool of goroutines (WithWorkers wide,
// one structure per goroutine at a time).  Result i corresponds to
// bs[i].
func (c *Counter) CountBatch(bs []*structure.Structure) ([]*big.Int, error) {
	return c.CountBatchCtx(context.Background(), bs)
}

// CountBatchCtx is CountBatch under a context: once ctx fires, no
// further structures are started and the in-flight executors abort with
// ctx's error (see CountCtx).
func (c *Counter) CountBatchCtx(ctx context.Context, bs []*structure.Structure) ([]*big.Int, error) {
	out := make([]*big.Int, len(bs))
	err := engine.RunBoundedCtx(ctx, len(bs), c.batchWidth(), func(i int) error {
		v, err := c.CountInto(ctx, bs[i], new(big.Int))
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// mulScratch pools the big.Int temporaries of the signed-sum loop so a
// memo-warm count allocates nothing for the coeff×count products.
var mulScratch = sync.Pool{New: func() any { return new(big.Int) }}

// CountInto is Count under a context, accumulating into caller-owned dst
// (which is returned): the paper's forward pipeline — sentence
// short-circuit, then the signed sum over the unique φ⁻af counting
// classes — executed through the session's per-fingerprint count memo.
// On the memo-warm path — every fingerprint settled in b's session, the
// steady state of serving workloads — it performs zero heap allocations:
// sentence and term counts come out of the memo by pointer, the
// per-term products use a pooled temporary, and dst absorbs the result
// in place.  See CountBatchInto for the batch form.
func (c *Counter) CountInto(ctx context.Context, b *structure.Structure, dst *big.Int) (*big.Int, error) {
	sess, err := c.sessionFor(b)
	if err != nil {
		return nil, err
	}
	full, err := c.sentenceCount(ctx, sess)
	if err != nil {
		return nil, err
	}
	if full != nil {
		return dst.Set(full), nil
	}
	dst.SetInt64(0)
	tmp := mulScratch.Get().(*big.Int)
	for i := range c.terms {
		v, err := c.countTerm(ctx, &c.terms[i], sess)
		if err != nil {
			mulScratch.Put(tmp)
			return nil, err
		}
		tmp.Mul(c.terms[i].coeff, v)
		dst.Add(dst, tmp)
	}
	mulScratch.Put(tmp)
	return dst, nil
}

// CountBatchInto is CountBatch writing into caller-owned out (len(out)
// must equal len(bs); out[i] must be non-nil and is overwritten in
// place).  With a fan-out width of 1 the batch runs inline on the
// caller's goroutine, so a fully memo-warm batch is allocation-free end
// to end; wider settings fan out like CountBatch.
func (c *Counter) CountBatchInto(ctx context.Context, bs []*structure.Structure, out []*big.Int) error {
	if len(out) != len(bs) {
		return fmt.Errorf("core: CountBatchInto out length %d != batch length %d", len(out), len(bs))
	}
	width := c.batchWidth()
	if width == 1 || len(bs) <= 1 {
		for i := range bs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if _, err := c.CountInto(ctx, bs[i], out[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return engine.RunBoundedCtx(ctx, len(bs), width, func(i int) error {
		_, err := c.CountInto(ctx, bs[i], out[i])
		return err
	})
}

// countTerm evaluates a unique term or sentence disjunct inside a
// session through the shared fingerprint-memoized execution helper
// (engine.CountKeyedCtx); the memo hit/miss telemetry feeds Stats.  The
// memoized value is shared and must be treated as read-only.
func (c *Counter) countTerm(ctx context.Context, t *compiledTerm, sess *engine.Session) (*big.Int, error) {
	v, hit, err := engine.CountKeyedCtx(ctx, t.plan, t.fp, sess, 0)
	if hit {
		c.countHits.Add(1)
	} else {
		c.countMisses.Add(1)
	}
	return v, err
}

// Answers enumerates the answer set φ(B) (deduplicated assignments of
// the liberal variables, as element names aligned with the query head).
// fn returning false stops early; limit ≤ 0 means unlimited.  Returns the
// number of answers delivered.  It enumerates the normalized disjuncts,
// which it compiles afresh: the counter keeps only its terms.
func (c *Counter) Answers(b *structure.Structure, limit int, fn func(Answer) bool) (int, error) {
	if !c.sig.Equal(b.Signature()) {
		return 0, fmt.Errorf("core: query signature %v differs from structure signature %v",
			c.sig, b.Signature())
	}
	cp, err := eptrans.Compile(c.query, c.sig)
	if err != nil {
		return 0, err
	}
	return enumerateAnswers(c.query.Lib, cp.Disjuncts, b, limit, fn)
}

// Classify returns the trichotomy verdict of the compiled query's φ⁺ —
// the φ⁻af terms, then the sentence disjuncts — relative to the supplied
// width bounds.  Every Report is read off its plan's shape
// (classify.Read): no treewidth search runs.
func (c *Counter) Classify(wCore, wContract int) (classify.Verdict, error) {
	reports := make([]classify.Report, 0, len(c.terms)+len(c.sentences))
	for _, ts := range [][]compiledTerm{c.terms, c.sentences} {
		for i := range ts {
			reports = append(reports, classify.Read(ts[i].formula, ts[i].plan.Shape()))
		}
	}
	return classify.ClassifyPPSet(reports, wCore, wContract), nil
}

// Stats is a snapshot of the counter's term-interning and caching
// telemetry.
type Stats struct {
	// Pool is the canonical term pool's interning counters: raw
	// inclusion–exclusion terms (2^s − 1 over the free disjuncts), raw
	// terms absorbed pre-core, unique counting classes, and classes
	// whose coefficients cancelled to zero (no plan built).
	Pool term.Stats
	// Plans is the number of engine plans backing this counter: one per
	// unique φ⁻af term surviving the sentence-entailment filter.
	Plans int
	// SharedPlans is how many of those plans were already compiled (by
	// another Counter of the same counting class) and came out of the
	// fingerprint-keyed plan cache.
	SharedPlans int
	// CountCacheHits/CountCacheMisses are the session count-memo
	// outcomes across every Count/CountBatch call so far.
	CountCacheHits   uint64
	CountCacheMisses uint64
	// Workers is the width of the counter's batch fan-out at snapshot
	// time (WithWorkers, else GOMAXPROCS).
	Workers int
	// HardestCase is the worst trichotomy case among the terms under
	// the route bounds (DefaultRouteWCore, DefaultRouteWContract);
	// TermsFPT/TermsHard split the terms by routing decision.
	HardestCase         classify.Case
	TermsFPT, TermsHard int
	// ApproxCounts is the number of approximate term evaluations
	// (CountApprox hard-term executions) performed so far.
	ApproxCounts uint64
}

// String renders the telemetry block shared by Explain and epcount
// -stats.
func (st Stats) String() string {
	return fmt.Sprintf("term pool: %s\nplans: %d (one per unique surviving term; %d shared via fingerprint cache)\ncount cache: %d hits, %d misses\nbatch width: %d\nrouting vs bounds (%d,%d): %s — %d exact term(s), %d approx term(s); approx evals: %d\n",
		st.Pool, st.Plans, st.SharedPlans, st.CountCacheHits, st.CountCacheMisses, st.Workers,
		DefaultRouteWCore, DefaultRouteWContract, st.HardestCase.Short(), st.TermsFPT, st.TermsHard,
		st.ApproxCounts)
}

// Stats returns a consistent snapshot of the counter's interning and
// cache telemetry.  Safe to call concurrently with in-flight counting
// (the serving pattern: a /stats endpoint reading while request
// handlers count): the mutable counters are atomics, everything else in
// the snapshot is immutable after NewCounter.
func (c *Counter) Stats() Stats {
	st := Stats{
		Pool:             c.pool,
		Plans:            len(c.terms),
		SharedPlans:      c.sharedPlans,
		CountCacheHits:   c.countHits.Load(),
		CountCacheMisses: c.countMisses.Load(),
		Workers:          c.batchWidth(),
		HardestCase:      c.hardest,
		ApproxCounts:     c.approxCounts.Load(),
	}
	for i := range c.terms {
		if c.terms[i].est != nil {
			st.TermsHard++
		} else {
			st.TermsFPT++
		}
	}
	return st
}

// Explain renders a human-readable account of the compiled pipeline: the
// normalized disjuncts, φ*af with coefficients, φ⁻af and φ⁺, the
// per-formula structural parameters (marked where a width is only a
// heuristic upper bound), and the term-pool / cache
// statistics.  The counter keeps only its terms, so each call compiles
// the query afresh for the front-end part of the report.
func (c *Counter) Explain() string {
	cp, err := eptrans.Compile(c.query, c.sig)
	if err != nil { // unreachable: NewCounter compiled the same query
		return fmt.Sprintf("query: %s\nfront end: %v\n", c.query, err) + c.Stats().String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", cp.Query)
	fmt.Fprintf(&b, "signature: %s\n", cp.Sig)
	fmt.Fprintf(&b, "normalized disjuncts: %d (%d free, %d sentence)\n",
		len(cp.Disjuncts), len(cp.Free), len(cp.Sentences))
	for i, d := range cp.Disjuncts {
		kind := "free"
		if d.IsSentence() {
			kind = "sentence"
		}
		fmt.Fprintf(&b, "  ψ%d (%s): %s\n", i+1, kind, d)
	}
	fmt.Fprintf(&b, "φ*af terms (after cancellation): %d\n", len(cp.Star))
	for _, t := range cp.Star {
		fmt.Fprintf(&b, "  %+d × %s\n", t.Coeff, t.Formula)
	}
	fmt.Fprintf(&b, "φ⁻af terms (surviving sentence-entailment filter): %d\n", len(cp.Minus))
	fmt.Fprintf(&b, "φ⁺ size: %d\n", len(cp.Plus))
	if v, err := c.Classify(1, 1); err == nil {
		fmt.Fprintf(&b, "classification vs bounds (1,1): %s\n", v)
		for i, r := range v.Reports {
			heuristic := ""
			if !r.CoreExact || !r.ContractExact {
				heuristic = " (heuristic bound)"
			}
			fmt.Fprintf(&b, "  φ⁺[%d]: core tw %d, contract tw %d, ∃-components %d (max interface %d)%s\n",
				i, r.CoreTreewidth, r.ContractTreewidth, r.NumExistsComponents, r.MaxInterface, heuristic)
		}
	}
	b.WriteString(c.Stats().String())
	return b.String()
}
