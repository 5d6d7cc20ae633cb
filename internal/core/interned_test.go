package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/parser"
	"repro/internal/workload"
)

// unionHeavySrc is an ep-query with 4 overlapping free disjuncts — the
// four rotations of a directed 2-path over the cyclic liberal variables
// (w,x,y,z).  All four are counting equivalent up to liberal renaming,
// so the 2⁴−1 = 15 raw inclusion–exclusion terms collapse hard.
const unionHeavySrc = `u(w,x,y,z) := E(x,y) & E(y,z)
	| E(y,z) & E(z,w)
	| E(z,w) & E(w,x)
	| E(w,x) & E(x,y)`

// Acceptance: on a union-heavy query with ≥ 4 overlapping disjuncts the
// interned pipeline compiles strictly fewer engine plans than raw
// inclusion–exclusion terms, and the Explain stats say so.
func TestInternedPlansFewerThanRawTerms(t *testing.T) {
	q := parser.MustQuery(unionHeavySrc)
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Pool.Raw != 15 {
		t.Fatalf("RawTerms = %d, want 2^4-1 = 15", st.Pool.Raw)
	}
	if st.Pool.Unique >= st.Pool.Raw {
		t.Fatalf("interning did not dedupe: %d unique cores from %d raw terms", st.Pool.Unique, st.Pool.Raw)
	}
	if st.Plans >= st.Pool.Raw {
		t.Fatalf("compiled %d plans from %d raw terms: want strictly fewer", st.Plans, st.Pool.Raw)
	}
	comp, err := eptrans.Compile(q, c.Signature())
	if err != nil {
		t.Fatal(err)
	}
	if st.Plans != len(c.terms) || st.Plans != len(comp.Minus) {
		t.Fatalf("Plans = %d, terms = %d, Minus = %d: must agree", st.Plans, len(c.terms), len(comp.Minus))
	}
	// The numbers surface through Explain.
	s := c.Explain()
	for _, want := range []string{
		fmt.Sprintf("term pool: %d raw IE terms → %d unique cores", st.Pool.Raw, st.Pool.Unique),
		fmt.Sprintf("plans: %d", st.Plans),
		"count cache:",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("Explain missing %q:\n%s", want, s)
		}
	}
	// And the deduped pipeline still counts correctly.
	for seed := int64(0); seed < 4; seed++ {
		b := workload.RandomStructure(c.Signature(), 4, 0.4, seed)
		want, err := count.EPDirect(c.Query(), b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Count(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: interned %v != direct %v", seed, got, want)
		}
	}
}

// The session count memo fires on repeated counts of the same structure
// and the hit telemetry reaches Stats/Explain.
func TestCountCacheHitsOnRepeatedCounts(t *testing.T) {
	q := parser.MustQuery(unionHeavySrc)
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.RandomStructure(c.Signature(), 5, 0.3, 9)
	first, err := c.Count(b)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.CountCacheHits != 0 {
		t.Fatalf("first count should be all misses, got %d hits", st.CountCacheHits)
	}
	misses := st.CountCacheMisses
	if misses == 0 {
		t.Fatal("fingerprinted terms should record misses on the first count")
	}
	second, err := c.Count(b)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cmp(second) != 0 {
		t.Fatalf("repeated count changed: %v vs %v", first, second)
	}
	st = c.Stats()
	if st.CountCacheHits != misses {
		t.Fatalf("second count should hit every memoized term: %d hits, want %d", st.CountCacheHits, misses)
	}
	if st.CountCacheMisses != misses {
		t.Fatalf("second count recorded new misses: %d, want %d", st.CountCacheMisses, misses)
	}
}

// Explain compiles the query afresh on every call: the report up to the
// live stats block is the same each time, and the stats block follows
// the counts taken in between.
func TestExplainStaticReportStable(t *testing.T) {
	q := parser.MustQuery(unionHeavySrc)
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	static := func(s string) string {
		i := strings.Index(s, "term pool:")
		if i < 0 {
			t.Fatalf("Explain has no stats block:\n%s", s)
		}
		return s[:i]
	}
	a := c.Explain()
	if _, err := c.Count(workload.RandomStructure(c.Signature(), 4, 0.4, 1)); err != nil {
		t.Fatal(err)
	}
	b := c.Explain()
	if static(a) != static(b) {
		t.Fatalf("the static report changed between calls:\n%s\n---\n%s", a, b)
	}
	if a == b {
		t.Fatal("the stats block did not follow the count")
	}
}

// Counting-equivalent queries compiled as separate Counters share plans
// through the fingerprint-keyed cache.
func TestFingerprintPlanSharingAcrossCounters(t *testing.T) {
	q1 := parser.MustQuery("p(x,y) := exists u. E(x,u) & E(u,y)")
	q2 := parser.MustQuery("p(a,b) := exists m. E(a,m) & E(m,b)")
	c1, err := NewCounter(q1, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCounter(q2, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Stats().Plans != 1 || c2.Stats().Plans != 1 {
		t.Fatalf("single-disjunct queries should have 1 plan each")
	}
	if c2.Stats().SharedPlans != 1 {
		t.Fatalf("c2 should reuse c1's plan via the fingerprint cache, SharedPlans = %d", c2.Stats().SharedPlans)
	}
	if c1.terms[0].plan != c2.terms[0].plan {
		t.Fatal("counters should hold the identical plan object")
	}
}

// Differential property test on the term-dedup-heavy shape: randomized
// ep-queries assembled from overlapping union disjuncts, interned
// pipeline vs brute-force enumeration.
func TestInternedPipelineMatchesDirectRandomUnions(t *testing.T) {
	templates := []string{
		"E(x,y)",
		"E(y,x)",
		"exists u. E(x,u) & E(u,y)",
		"exists u. E(y,u) & E(u,x)",
		"E(x,y) & E(y,x)",
		"E(x,x)",
		"exists u, v. E(u,v) & E(v,u)", // sentence disjunct
		"exists u. E(x,u)",
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		k := 2 + rng.Intn(4) // 2..5 disjuncts, duplicates allowed
		var parts []string
		for i := 0; i < k; i++ {
			parts = append(parts, templates[rng.Intn(len(templates))])
		}
		src := "q(x,y) := " + strings.Join(parts, " | ")
		q := parser.MustQuery(src)
		c, err := NewCounter(q, nil, count.EngineFPT)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for seed := int64(0); seed < 3; seed++ {
			b := workload.RandomStructure(c.Signature(), 4, 0.35, int64(trial)*7+seed)
			want, err := count.EPDirect(c.Query(), b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s seed %d: interned %v != direct %v", src, seed, got, want)
			}
		}
	}
}

// A star's liberal leaves are interchangeable: without automorphism
// pruning, labeling walks all k! orders of them and overruns its budget.
// StarQuery(16) must compile to fingerprinted terms — a repeat count is
// a memo hit — and count what the formula says.
func TestStarQueryCounterIsFingerprinted(t *testing.T) {
	q := workload.StarQuery(16)
	c, err := NewCounter(q, nil, engine.FPT)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range c.terms {
		if tm.fp == "" {
			t.Fatalf("term %v has no fingerprint", tm.formula)
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		b := workload.RandomStructure(workload.EdgeSig(), 2, 0.6, seed)
		want, err := count.EPDirect(q, b)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			got, err := c.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("seed %d: StarQuery(16) counts %v, direct evaluation %v", seed, got, want)
			}
		}
	}
	if st := c.Stats(); st.CountCacheHits < 3 {
		t.Fatalf("repeat counts were not memo hits: %+v", st)
	}
}
