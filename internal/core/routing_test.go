package core

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/approx"
	"repro/internal/classify"
	"repro/internal/count"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/workload"
)

// namedQuery labels a query for test diagnostics.
type namedQuery struct {
	name string
	q    logic.Query
}

// routingBattery is the query battery the routing and classification
// differentials run over: hand-picked shapes on both sides of the
// trichotomy, an overlapping union, and a few random ep-queries.
func routingBattery() []namedQuery {
	queries := []string{
		"p(x,y) := E(x,y)",
		"path(x,y,z) := E(x,y) & E(y,z)",
		"tri(x,y,z) := E(x,y) & E(y,z) & E(x,z)",
		"k4(w,x,y,z) := E(w,x) & E(w,y) & E(w,z) & E(x,y) & E(x,z) & E(y,z)",
		"mix(x,y) := E(x,y) | exists u. E(x,u) & E(u,y)",
		"ie(x,y,z) := E(x,y) & E(y,z) | E(x,y) & E(y,z) & E(x,z)",
	}
	battery := make([]namedQuery, 0, len(queries)+4)
	for _, src := range queries {
		battery = append(battery, namedQuery{src, parser.MustQuery(src)})
	}
	sig := workload.EdgeSig()
	for seed := int64(0); seed < 4; seed++ {
		q := workload.RandomEPQuery(sig, 2, 4, 2, 3, seed)
		battery = append(battery, namedQuery{fmt.Sprintf("random-ep-%d", seed), q})
	}
	return battery
}

// TestRoutingMatchesClassify cross-checks the compile-time routing table
// against an independent classification of each interned term: the case
// the router stored must equal what classify.AnalyzePP reports under the
// same (wCore, wContract) bounds, and exactly the hard terms must carry
// an approximate plan.
func TestRoutingMatchesClassify(t *testing.T) {
	for _, nq := range routingBattery() {
		src, q := nq.name, nq.q
		c, err := NewCounter(q, nil, count.EngineFPT)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		routes := c.Routes()
		if len(routes) != len(c.terms) {
			t.Fatalf("%s: %d routes for %d terms", src, len(routes), len(c.terms))
		}
		hardest := classify.CaseFPT
		for i := range c.terms {
			rep := classify.AnalyzePP(c.terms[i].formula)
			want := rep.CaseFor(DefaultRouteWCore, DefaultRouteWContract)
			if routes[i].Case != want {
				t.Errorf("%s term %d (%s): routed as %s, independent classification says %s",
					src, i, routes[i].FP, routes[i].Case, want)
			}
			if routes[i].Approx != want.Hard() {
				t.Errorf("%s term %d: approx plan = %v for case %s", src, i, routes[i].Approx, want)
			}
			if want > hardest {
				hardest = want
			}
		}
		if c.HardestCase() != hardest {
			t.Errorf("%s: HardestCase = %s, want %s", src, c.HardestCase(), hardest)
		}
	}
}

// TestFPTApproxBitIdentical checks that queries classified FPT take the
// exact path through CountApprox: the routed result must be bit-identical
// to Count, flagged Exact, with zero sampling budget spent.
func TestFPTApproxBitIdentical(t *testing.T) {
	queries := []string{
		"p(x,y) := E(x,y)",
		"path(x,y,z) := E(x,y) & E(y,z)",
		"star(x) := exists u. exists v. E(x,u) & E(x,v)",
		"disj(x,y) := E(x,y) | E(y,x)",
	}
	for _, src := range queries {
		q := parser.MustQuery(src)
		c, err := NewCounter(q, nil, count.EngineFPT)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if c.HardestCase() != classify.CaseFPT {
			t.Fatalf("%s: expected an FPT query, classified %s", src, c.HardestCase())
		}
		for seed := int64(0); seed < 4; seed++ {
			b := workload.GraphStructure(workload.ER(18, 0.3, seed))
			want, err := c.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.CountApprox(b, approx.Params{Seed: seed + 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Estimate.Cmp(want) != 0 {
				t.Fatalf("%s seed %d: approx route %v != exact %v", src, seed, res.Estimate, want)
			}
			if !res.Exact || res.RelErr != 0 || res.Confidence != 1 || res.Samples != 0 {
				t.Fatalf("%s seed %d: FPT route reported sampling telemetry: %+v", src, seed, res)
			}
		}
	}
}

// TestHardRoutingSamples checks the hard side of the dichotomy: a clique
// query routes to the sampling estimator, spends budget, and lands near
// the exact count; the exact Count path is untouched by routing.  The
// exact count runs on a twin of the sampled structure: on the structure
// itself, approx mode would answer from the count memo.
func TestHardRoutingSamples(t *testing.T) {
	q := parser.MustQuery("tri(x,y,z) := E(x,y) & E(y,z) & E(x,z)")
	c, err := NewCounter(q, nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	if !c.HardestCase().Hard() {
		t.Fatalf("triangle query classified %s, want a hard case", c.HardestCase())
	}
	b := workload.GraphStructure(workload.ER(40, 0.25, 3))
	want, err := c.Count(workload.GraphStructure(workload.ER(40, 0.25, 3)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.CountApprox(b, approx.Params{Epsilon: 0.1, Delta: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.Samples == 0 || res.SampledTerms == 0 {
		t.Fatalf("hard query did not sample: %+v", res)
	}
	if !res.Converged {
		t.Fatalf("sampling did not converge within the default budget: %+v", res)
	}
	diff := new(big.Int).Sub(res.Estimate, want)
	diff.Abs(diff)
	bound := new(big.Float).SetInt(want)
	bound.Mul(bound, big.NewFloat(0.3)) // 3ε slack for the single trial
	if new(big.Float).SetInt(diff).Cmp(bound) > 0 {
		t.Fatalf("estimate %v too far from exact %v", res.Estimate, want)
	}
}

// TestClassificationMemoizedPerFingerprint checks that a term class is
// classified off one plan per fingerprint, not once per counter: a second
// counter over a renaming-equivalent query takes every plan from the
// fingerprint-keyed plan cache, and its routing table and Reports equal
// the first counter's.
func TestClassificationMemoizedPerFingerprint(t *testing.T) {
	c1, err := NewCounter(parser.MustQuery("tri(x,y,z) := E(x,y) & E(y,z) & E(x,z)"), nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}

	// Renaming-equivalent: same canonical fingerprint, different source.
	c2, err := NewCounter(parser.MustQuery("tri(a,b,c) := E(b,c) & E(a,b) & E(a,c)"), nil, count.EngineFPT)
	if err != nil {
		t.Fatal(err)
	}
	if s2 := c2.Stats(); s2.Plans == 0 || s2.SharedPlans != s2.Plans {
		t.Fatalf("renaming-equivalent counter: %d of %d plans from the fingerprint cache, want all", s2.SharedPlans, s2.Plans)
	}
	if r1, r2 := c1.Routes(), c2.Routes(); !reflect.DeepEqual(r1, r2) {
		t.Fatalf("equivalent queries routed differently:\n%+v\n%+v", r1, r2)
	}
	for i := range c2.terms {
		t1, t2 := &c1.terms[i], &c2.terms[i]
		if t1.plan != t2.plan {
			t.Fatalf("term %d: the second counter compiled its own plan", i)
		}
		r1, r2 := t1.report, t2.report
		r1.Formula, r1.Core, r2.Formula, r2.Core = pp.PP{}, pp.PP{}, pp.PP{}, pp.PP{}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("term %d: Reports differ: %+v vs %+v", i, r1, r2)
		}
	}
	if c1.HardestCase() != c2.HardestCase() {
		t.Fatalf("equivalent queries routed differently: %s vs %s", c1.HardestCase(), c2.HardestCase())
	}
}

// TestApproxHardGolden pins (estimate, samples) of free K4 / K5 on the
// approx-hard benchmark inputs, as recorded before the hom solver's
// revise moved to value-space bit rows: arc consistency has a unique
// fixpoint, so a change of propagation kernel must reproduce every draw
// and therefore every figure here bit for bit.  The figures also pin
// hom.Sampler's first-fixing memo and its skipped last propagation,
// which rest on the same fixpoint.
func TestApproxHardGolden(t *testing.T) {
	type golden struct {
		estimate int64
		samples  int
	}
	cases := []struct {
		k    int
		n    int
		p    float64
		seed int64
		want [4]golden // sampler seeds 1–4
	}{
		{4, 40, 0.4, 20160626, [4]golden{{9949, 256}, {9896, 256}, {10242, 256}, {10234, 256}}},
		{5, 30, 0.6, 20160726, [4]golden{{57869, 384}, {57944, 448}, {57173, 448}, {51580, 384}}},
	}
	for _, tc := range cases {
		c, err := NewCounter(workload.CliqueQuery(tc.k), nil, count.EngineFPT)
		if err != nil {
			t.Fatal(err)
		}
		b := workload.GraphStructure(workload.ER(tc.n, tc.p, tc.seed))
		for i, want := range tc.want {
			res, err := c.CountApprox(b, approx.Params{Epsilon: 0.1, Delta: 0.05, Seed: int64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Estimate.IsInt64() || res.Estimate.Int64() != want.estimate || res.Samples != want.samples {
				t.Errorf("K%d seed %d: (estimate, samples) = (%v, %d), want (%d, %d)",
					tc.k, i+1, res.Estimate, res.Samples, want.estimate, want.samples)
			}
		}
	}
}
