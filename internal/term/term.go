package term

import (
	"fmt"
	"math/big"

	"repro/internal/pp"
)

// Fingerprint returns the canonical counting-class fingerprint of a
// pp-formula: the canonical key of its core.  Two formulas over the same
// signature receive equal fingerprints iff they are counting equivalent
// (property-tested in pp against brute-force renaming equivalence).  An
// error wrapping pp.ErrLabelingBudget means the labeling gave up; the
// formula has no fingerprint and cannot be interned.  The formula
// without variables, the empty conjunction, has no canonical key; its
// fingerprint is emptyFP.
func Fingerprint(p pp.PP) (string, error) {
	c := p.Core()
	if c.A.Size() == 0 {
		return emptyFP, nil
	}
	return c.CanonicalKey()
}

// emptyFP is the fingerprint of the formula without variables ("true"):
// its one answer, the empty tuple, is an answer on every structure.  No
// canonical key has this form.
const emptyFP = "true"

// Interned is one unique counting class in a Pool: the cored
// representative of its first-seen term, the canonical fingerprint, and
// the merged inclusion–exclusion coefficient.
type Interned struct {
	// Formula is the core of the first term interned into this entry
	// (logically equivalent to it, hence count-preserving).
	Formula pp.PP
	// FP is the canonical fingerprint of the class.
	FP string
	// Coeff is the merged coefficient Σ of the interned terms' coefficients.
	Coeff *big.Int
	// Raw is the number of raw terms merged into this entry.
	Raw int

	rawMerged int // raw terms absorbed at the pre-core stage
}

// Stats summarizes a pool's interning activity.  The JSON tags are the
// wire shape epserved's /stats endpoint serves.
type Stats struct {
	// Raw is the number of terms interned (Add calls).
	Raw int `json:"raw"`
	// RawMerged counts raw terms absorbed at the raw (pre-core) stage:
	// each saved the cost of a core computation.
	RawMerged int `json:"raw_merged"`
	// Unique is the number of distinct counting classes (entries).
	Unique int `json:"unique"`
	// Cancelled is the number of entries whose merged coefficient is
	// currently zero — classes dropped before any plan is built.
	Cancelled int `json:"cancelled"`
}

// Pool interns pp-terms by canonical core, aggregating inclusion–
// exclusion coefficients per counting class.  The zero Pool is not
// usable; call NewPool.  A Pool is not safe for concurrent use (it is a
// compile-time object; compiled outputs are immutable and shareable).
type Pool struct {
	entries []*Interned
	byRawFP map[string]int // raw-formula canonical key → entry index
	byFP    map[string]int // cored canonical key → entry index

	// Raw-stage gating: canonical labeling of the (larger) un-cored
	// formula only runs when a second term shares the same cheap
	// isomorphism-invariant profile — dedup-light expansions never pay
	// for it.  rawSeen counts terms per profile; rawPending holds the
	// first-in-profile terms whose raw labeling was deferred.
	rawSeen    map[string]int
	rawPending map[string][]rawPendingEntry
}

type rawPendingEntry struct {
	f   pp.PP
	idx int
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		byRawFP:    make(map[string]int),
		byFP:       make(map[string]int),
		rawSeen:    make(map[string]int),
		rawPending: make(map[string][]rawPendingEntry),
	}
}

// rawProfile is the cheap isomorphism-invariant bucket key gating the
// raw stage: pp.InvariantKey (universe size, per-relation tuple counts,
// sorted liberal/quantified degree sequences — all renaming-invariant).
// Isomorphic raw terms always share a profile; collisions merely
// trigger a canonical labeling.
func rawProfile(p pp.PP) string { return p.InvariantKey() }

// Add interns the formula with the given coefficient and returns the
// index of its counting class among Terms().  The coefficient is read,
// not retained.  A formula whose core's labeling overruns its budget is
// refused with an error wrapping pp.ErrLabelingBudget.
func (pl *Pool) Add(f pp.PP, coeff *big.Int) (int, error) {
	// Raw stage: isomorphic raw terms share a class without being cored
	// (a term that arrives cored has nothing to save).  The labeling only
	// runs once a profile twin exists; the first term of a profile defers
	// (rawPending) and is labeled retroactively.  A raw labeling that
	// gives up only skips the shortcut.
	var rawKey, deferProfile string
	if !f.IsCored() {
		profile := rawProfile(f)
		if pl.rawSeen[profile] == 0 {
			deferProfile = profile
		} else {
			for _, p := range pl.rawPending[profile] {
				if k, err := p.f.CanonicalKey(); err == nil {
					pl.byRawFP[k] = p.idx
				}
			}
			delete(pl.rawPending, profile)
			if k, err := f.CanonicalKey(); err == nil {
				rawKey = k
				if i, ok := pl.byRawFP[rawKey]; ok {
					pl.rawSeen[profile]++
					pl.entries[i].rawMerged++
					pl.merge(i, coeff)
					return i, nil
				}
			}
		}
		pl.rawSeen[profile]++
	}
	// Cored stage: the complete counting-class fingerprint.
	cored := f.Core()
	fp, err := cored.CanonicalKey()
	if err != nil {
		return -1, fmt.Errorf("term: interning %v: %w", cored, err)
	}
	idx, ok := pl.byFP[fp]
	if !ok {
		idx = len(pl.entries)
		pl.entries = append(pl.entries, &Interned{Formula: cored, FP: fp, Coeff: new(big.Int)})
		pl.byFP[fp] = idx
	}
	if rawKey != "" {
		pl.byRawFP[rawKey] = idx
	} else if deferProfile != "" {
		pl.rawPending[deferProfile] = append(pl.rawPending[deferProfile], rawPendingEntry{f: f, idx: idx})
	}
	pl.merge(idx, coeff)
	return idx, nil
}

func (pl *Pool) merge(i int, coeff *big.Int) {
	e := pl.entries[i]
	e.Coeff.Add(e.Coeff, coeff)
	e.Raw++
}

// Terms returns every counting class in first-seen order, including
// classes whose merged coefficient has cancelled to zero.  The returned
// entries are the pool's own (coefficients keep merging on further Add
// calls).
func (pl *Pool) Terms() []*Interned { return pl.entries }

// Live returns the counting classes with non-zero merged coefficient, in
// first-seen order.
func (pl *Pool) Live() []*Interned {
	out := make([]*Interned, 0, len(pl.entries))
	for _, e := range pl.entries {
		if e.Coeff.Sign() != 0 {
			out = append(out, e)
		}
	}
	return out
}

// String renders the stats in the canonical one-line form shared by the
// CLIs and Explain.
func (st Stats) String() string {
	return fmt.Sprintf("%d raw IE terms → %d unique cores (%d cancelled, %d merged pre-core)",
		st.Raw, st.Unique, st.Cancelled, st.RawMerged)
}

// Stats returns a snapshot of the pool's interning counters.
func (pl *Pool) Stats() Stats {
	st := Stats{Unique: len(pl.entries)}
	for _, e := range pl.entries {
		st.Raw += e.Raw
		st.RawMerged += e.rawMerged
		if e.Coeff.Sign() == 0 {
			st.Cancelled++
		}
	}
	return st
}
