package classify

import (
	"sync"

	"repro/internal/pp"
)

// The classification memo: ReadKeyed caches Reports
// per canonical counting-class fingerprint (term.Fingerprint), so a term
// class is classified once, not per Counter construction or per request.
// Soundness mirrors the engine's fingerprint-keyed plan cache: equal
// fingerprints mean counting-equivalent (hence renaming-equivalent,
// Theorem 5.4) cored formulas, and renaming equivalence preserves the
// core graph, the contract graph, and the ∃-component structure — so one
// Report serves the whole class.
var (
	memoMu       sync.Mutex
	memo         = make(map[string]Report, memoCap)
	memoAnalyses uint64
	memoHits     uint64
)

// memoCap bounds the memo; on overflow the map is dropped wholesale
// (same policy as the engine plan caches — no LRU bookkeeping on the
// serving path).
const memoCap = 1024

// MemoStats reports the cumulative behavior of the classification memo:
// Analyses counts structural analyses actually performed through
// ReadKeyed, Hits counts lookups served from the memo.
type MemoStats struct {
	Analyses uint64 `json:"analyses"`
	Hits     uint64 `json:"hits"`
}

// Stats returns the current classification-memo counters.
func Stats() MemoStats {
	memoMu.Lock()
	defer memoMu.Unlock()
	return MemoStats{Analyses: memoAnalyses, Hits: memoHits}
}

// ReadKeyed classifies an already-cored pp-formula p whose shape the
// caller holds (a plan's, engine.Plan.Shape), memoizing the Report under
// the canonical fingerprint fp: a memo miss reads the Report off sh
// (Read), so no treewidth search runs twice.  The returned bool reports
// whether the Report came out of the memo.  An empty fp degrades to an
// unmemoized Read.
func ReadKeyed(p pp.PP, sh *pp.Shape, fp string) (Report, bool) {
	memoMu.Lock()
	if r, ok := memo[fp]; ok { // "" is never stored
		memoHits++
		memoMu.Unlock()
		return r, true
	}
	memoMu.Unlock()
	r := Read(p, sh)
	if fp == "" {
		return r, false
	}
	memoMu.Lock()
	memoAnalyses++
	if len(memo) >= memoCap {
		memo = make(map[string]Report, memoCap)
	}
	memo[fp] = r
	memoMu.Unlock()
	return r, false
}
