package engine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"

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
	// with zero allocations — no compute closure is ever built.
	if v, ok := s.countMemoHit(fp); ok {
		return v, true, nil
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

// Compile builds a plan for the formula; name must be Auto or FPT.
// Results are memoized per (formula structure identity, structure
// version, liberal set), so hot one-shot paths that re-count the same
// compiled formula do not pay recompilation.
func Compile(p pp.PP, name Name) (Plan, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	key, ok := planCacheKeyFor(p)
	if !ok {
		return newFPTPlan(p)
	}
	planCacheMu.Lock()
	cached := planCache[key]
	planCacheMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	pl, err := newFPTPlan(p)
	if err != nil {
		return nil, err
	}
	planCacheMu.Lock()
	if len(planCache) >= planCacheCap {
		// Cheap wholesale eviction: the cache is a memo, not a store.
		planCache = make(map[planCacheKey]Plan, planCacheCap)
	}
	planCache[key] = pl
	planCacheMu.Unlock()
	return pl, nil
}

// CompileKeyed is Compile with an optional canonical counting-class
// fingerprint (term.Fingerprint, threaded through ie.Term.FP): plans are
// additionally cached per fingerprint, so pointer-distinct but
// counting-equivalent formulas — across inclusion–exclusion terms,
// Counters, and batches — share one compiled plan.  This is sound by
// Theorem 5.4: counting-equivalent formulas have identical counts on
// every structure, so a plan compiled from any representative of the
// class counts for all of them.  Canonical fingerprints embed the full
// relational schema and the liberal-set coloring, so equal keys imply
// interchangeable plans.  The returned bool reports whether the plan
// came out of the fingerprint cache.  An empty fp degrades to Compile.
func CompileKeyed(p pp.PP, fp string, name Name) (Plan, bool, error) {
	if err := checkName(name); err != nil {
		return nil, false, err
	}
	if fp == "" {
		pl, err := Compile(p, name)
		return pl, false, err
	}
	planCacheMu.Lock()
	cached := fpPlanCache[fp]
	planCacheMu.Unlock()
	if cached != nil {
		return cached, true, nil
	}
	pl, err := Compile(p, name) // also feeds the pointer-keyed memo
	if err != nil {
		return nil, false, err
	}
	planCacheMu.Lock()
	if len(fpPlanCache) >= planCacheCap {
		fpPlanCache = make(map[string]Plan, planCacheCap)
	}
	fpPlanCache[fp] = pl
	planCacheMu.Unlock()
	return pl, false, nil
}

// planCacheKey identifies a compiled formula: the structure pointer plus
// its mutation version (stale entries simply miss) and the liberal set.
type planCacheKey struct {
	a       *structure.Structure
	version uint64
	libs    string
}

const planCacheCap = 256

var (
	planCacheMu sync.Mutex
	planCache   = make(map[planCacheKey]Plan, planCacheCap)
	fpPlanCache = make(map[string]Plan, planCacheCap)
)

func planCacheKeyFor(p pp.PP) (planCacheKey, bool) {
	if p.A == nil {
		return planCacheKey{}, false
	}
	// S is a sorted list of small ints; a compact byte encoding is an
	// adequate identity.
	buf := make([]byte, 0, 2*len(p.S))
	for _, v := range p.S {
		if v > 0xffff {
			return planCacheKey{}, false
		}
		buf = append(buf, byte(v), byte(v>>8))
	}
	return planCacheKey{a: p.A, version: p.A.Version(), libs: string(buf)}, true
}
