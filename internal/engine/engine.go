package engine

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cache"
	"repro/internal/pp"
	"repro/internal/structure"
)

// Name identifies a counting engine.  There is one exact executor, the
// Theorem 2.11 pipeline; Auto and FPT both name it, and Compile refuses
// every other value.
type Name int

const (
	// Auto picks an engine automatically (the FPT engine).
	Auto Name = iota
	// FPT runs the Theorem 2.11 pipeline: core, ∃-component predicates,
	// join-count DP over a contract-graph tree decomposition.
	FPT
)

// checkName refuses every Name but Auto and FPT.
func checkName(n Name) error {
	if n != Auto && n != FPT {
		return fmt.Errorf("engine: unknown engine %d", n)
	}
	return nil
}

// Plan is a pp-formula compiled for the join-count executor: all
// formula-dependent work (cores, ∃-components, tree decompositions,
// constraint schemes) is done at compile time, so CountIn only performs
// structure-dependent work.  Plans are immutable after compilation and
// safe for concurrent use.
type Plan interface {
	// Formula returns the compiled pp-formula.
	Formula() pp.PP
	// Shape returns the shape the plan was compiled from (pp.ShapeOf of
	// the formula's core): the decompositions it runs on and the widths
	// they certify.
	Shape() *pp.Shape
	// CountIn executes the plan inside a session (the structure is the
	// session's; materialized tables are reused and extended), polling
	// ctx while it runs and returning ctx's error once it fires, partial
	// work discarded.  ctx is never nil; one that can never be cancelled
	// costs nothing — the polling engages only when ctx.Done() is non-nil.
	CountIn(ctx context.Context, s *Session) (*big.Int, error)
}

// CountInCtx runs the plan inside a session under a context (see
// Plan.CountIn); an already-fired ctx is refused before the plan is
// entered.  Cancellation is cooperative and approximate: a count that
// completes just as ctx fires may still be returned.
//
// The trailing int is retired and read by nothing: it was the per-call
// worker budget of the parallel executor, and stays only because
// benchmark/ladder.go, frozen outside benchmark PRs, still passes it.
func CountInCtx(ctx context.Context, pl Plan, s *Session, _ int) (*big.Int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return pl.CountIn(ctx, s)
}

// CountKeyedCtx executes the plan inside the session, memoizing the
// result under the canonical counting-class fingerprint when one is
// present (fp != ""): each unique class executes at most once per
// (session, structure-version), no matter how many terms, repeated
// counts, Counters, or batch workers ask.  The bool reports a memo hit
// (always false for fp == "").  The returned value is shared — callers
// must treat it as read-only.  The trailing int is retired, as on
// CountInCtx.
//
// A memo entry whose computation ended in a cancellation error is
// evicted immediately (countMemoState), so one cancelled request never
// poisons the fingerprint's count for later callers.  A caller that
// parked on another request's computation and received that request's
// cancellation error retries while its own context is still alive — a
// short-deadline client must never surface its timeout to a concurrent
// client with a healthy deadline.  Each retry lands on a fresh entry
// (the cancelled one was evicted) computed under a live context, so the
// loop terminates once this caller either computes the count itself or
// its own ctx fires.
//
// A keyed count against a delta-maintainable plan (fptPlan.deltaOK) is
// maintained incrementally across append batches: when the session
// adopted a prior for the fingerprint from the structure's previous
// version, the plan advances it by the appended delta instead of
// recounting, and every successful count leaves behind the state the
// next advance starts from (delta.go).
func CountKeyedCtx(ctx context.Context, pl Plan, fp string, s *Session, _ int) (*big.Int, bool, error) {
	if fp == "" {
		v, err := CountInCtx(ctx, pl, s, 0)
		return v, false, err
	}
	// Memo-warm fast path: a settled fingerprint returns its shared value
	// with zero allocations — no compute closure is ever built.  A miss
	// (absent, still computing, or failed) falls through to countMemoState.
	if e, ok := s.counts.Get(fp); ok && e.done.Load() {
		return e.v, true, nil
	}
	maintained, _ := pl.(*fptPlan)
	for {
		v, hit, err := s.countMemoState(ctx, fp, func(prev *priorCount) (*big.Int, *fptDeltaState, error) {
			if maintained != nil {
				return maintained.countMaintained(ctx, s, prev)
			}
			v, err := CountInCtx(ctx, pl, s, 0)
			return v, nil, err
		})
		if err != nil && isCancellation(err) && ctx.Err() == nil {
			continue
		}
		return v, hit, err
	}
}

// isCancellation reports whether err stems from a context firing.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Compile builds a plan for p's core; name must be Auto or FPT.  Pool
// terms carry the cored mark, so for them p.Core() is p itself and costs
// nothing.  Compile caches nothing: a caller that counts one formula many
// times holds on to the plan, and one that compiles counting-equivalent
// formulas keys them by fingerprint (CompileKeyed).
func Compile(p pp.PP, name Name) (Plan, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	pl, err := planFrom(p, pp.ShapeOf(p.Core()))
	if err != nil {
		return nil, err
	}
	return pl, nil
}

// CountOnce counts |p(B)| once: it checks the signature, validates b,
// compiles p and counts it in a session of its own.  The session is
// never registered (SessionFor), so a throwaway structure cannot evict a
// serving session; a caller counting one formula many times, or one
// structure many times, holds on to a Plan or a Session instead.
func CountOnce(p pp.PP, b *structure.Structure) (*big.Int, error) {
	if !p.A.Signature().Equal(b.Signature()) {
		return nil, fmt.Errorf("engine: formula signature %v differs from structure signature %v",
			p.A.Signature(), b.Signature())
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	pl, err := Compile(p, FPT)
	if err != nil {
		return nil, err
	}
	return pl.CountIn(context.Background(), NewSession(b))
}

// CompileKeyed is Compile with an optional canonical counting-class
// fingerprint (term.Fingerprint, threaded through ie.Term.FP): plans are
// cached per fingerprint, so pointer-distinct but counting-equivalent
// formulas — across inclusion–exclusion terms, Counters, and batches —
// share one compiled plan.  This is sound by Theorem 5.4:
// counting-equivalent formulas have identical counts on every structure,
// so a plan compiled from any representative of the class counts for
// all of them.  Canonical fingerprints embed the full relational schema
// and the liberal-set coloring, so equal keys imply interchangeable
// plans.  The returned bool reports whether the plan came out of the
// cache.  An empty fp degrades to Compile.
func CompileKeyed(p pp.PP, fp string, name Name) (Plan, bool, error) {
	if err := checkName(name); err != nil {
		return nil, false, err
	}
	if pl, ok := fpPlanCache.Get(fp); ok { // "" is never stored
		return pl, true, nil
	}
	pl, err := Compile(p, name)
	if err != nil || fp == "" {
		return pl, false, err
	}
	pl, shared := fpPlanCache.Add(fp, pl)
	return pl, shared, nil
}

// fpPlanCache is the process-wide fingerprint-keyed plan cache.
var fpPlanCache = cache.New[string, Plan](256)

// CacheStats returns snapshots of the two process-wide caches: the
// fingerprint-keyed plan cache and the session registry.
func CacheStats() (planCache, sessionCache cache.Stats) {
	return fpPlanCache.Stats(), sessions.Stats()
}
