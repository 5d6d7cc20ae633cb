package serve

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"repro/internal/workload"
)

// erFacts renders an ER graph as a fact file for ingestion.
func erFacts(t *testing.T, n int, p float64, seed int64) string {
	t.Helper()
	return factsText(t, workload.GraphStructure(workload.ER(n, p, seed)))
}

// TestCountApproxContract checks the mode=approx wire contract end to
// end through the typed client: the estimate round-trips with its error
// bound, case, confidence and sample count, and repeated requests with
// the same seed are bit-identical.  The exact count runs on a twin of
// "g": on "g" itself approx mode would answer from the count memo.
func TestCountApproxContract(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	for _, name := range []string{"g", "twin"} {
		if _, err := cl.CreateStructure(ctx, name, erFacts(t, 40, 0.25, 3), nil); err != nil {
			t.Fatal(err)
		}
	}

	exact, _, err := cl.Count(ctx, triangleQuery, "twin")
	if err != nil {
		t.Fatal(err)
	}
	if exact.Sign() == 0 {
		t.Fatal("degenerate instance: exact count is zero")
	}

	est, resp, err := cl.CountApprox(ctx, triangleQuery, "g", 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Estimate == "" || resp.Estimate != resp.Count {
		t.Fatalf("estimate %q must be set and mirror count %q for mode-unaware readers", resp.Estimate, resp.Count)
	}
	if resp.Case != "sharp-clique" && resp.Case != "clique" {
		t.Fatalf("triangle query must report a hard case, got %q", resp.Case)
	}
	if resp.RelError <= 0 || resp.RelError > 0.2 {
		t.Fatalf("rel_error = %v, want (0, 0.2]", resp.RelError)
	}
	if resp.Confidence != 0.95 {
		t.Fatalf("confidence = %v, want 0.95 for δ=0.05", resp.Confidence)
	}
	if resp.Samples == 0 || resp.Exact {
		t.Fatalf("hard query must sample: samples=%d exact=%v", resp.Samples, resp.Exact)
	}
	if resp.Converged == nil || !*resp.Converged {
		t.Fatalf("an estimate inside its ε must say converged=true: %+v", resp)
	}
	// Single-trial sanity: within 3ε of the exact count.
	ef, _ := new(big.Float).SetInt(exact).Float64()
	gf, _ := new(big.Float).SetInt(est).Float64()
	if rel := (gf - ef) / ef; rel > 0.3 || rel < -0.3 {
		t.Fatalf("estimate %v too far from exact %v", est, exact)
	}

	// Seeded reproducibility across the wire.
	req := CountRequest{Query: triangleQuery, Structure: "g", Mode: "approx", Seed: 42}
	e1, _, err := cl.CountWith(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := cl.CountWith(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Cmp(e2) != 0 {
		t.Fatalf("same seed over the wire diverged: %v vs %v", e1, e2)
	}

	// An estimate that ran into max_samples says so, rather than leaving
	// the client to compare rel_error with the ε it asked for; an exact
	// count carries no verdict at all.
	req.MaxSamples = 1
	_, capped, err := cl.CountWith(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Converged == nil || *capped.Converged || capped.Samples != 1 {
		t.Fatalf("max_samples=1 must answer converged=false after one draw: %+v", capped)
	}
	if _, plain, err := cl.Count(ctx, triangleQuery, "g"); err != nil || plain.Converged != nil {
		t.Fatalf("exact mode must not carry converged: %+v, %v", plain, err)
	}
}

// TestCountApproxAnswersFromMemo: once an exact /count has memoized a
// hard query's count at the structure's version, mode=approx answers
// that count exactly with no draw; after an append it samples again.
func TestCountApproxAnswersFromMemo(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := cl.CreateStructure(ctx, "g", erFacts(t, 40, 0.25, 3), nil); err != nil {
		t.Fatal(err)
	}
	exact, _, err := cl.Count(ctx, triangleQuery, "g")
	if err != nil {
		t.Fatal(err)
	}
	est, resp, err := cl.CountApprox(ctx, triangleQuery, "g", 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cmp(exact) != 0 || resp.Samples != 0 || !resp.Exact || resp.RelError != 0 || resp.Confidence != 1 {
		t.Fatalf("approx after an exact count = %v %+v, want the exact count %v with 0 samples", est, resp, exact)
	}
	if resp.Converged == nil || !*resp.Converged || (resp.Case != "sharp-clique" && resp.Case != "clique") {
		t.Fatalf("a memo answer keeps the approx schema: %+v", resp)
	}
	if _, err := cl.AppendFacts(ctx, "g", "E(v0,fresh). E(fresh,v0)."); err != nil {
		t.Fatal(err)
	}
	if _, resp, err := cl.CountApprox(ctx, triangleQuery, "g", 0.1, 0.05); err != nil || resp.Samples == 0 || resp.Exact {
		t.Fatalf("approx at a version with no memoized count must sample: %+v, %v", resp, err)
	}
}

// TestCountApproxExactZeroFromPrefix: mode=approx on a free triangle
// over K3,3, whose count is 0 though arc consistency keeps every
// vertex, answers 0 with exact=true, converged=true and no sample: the
// sampler's first fixings prove the zero when it is built.
func TestCountApproxExactZeroFromPrefix(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	var facts string
	for _, u := range []string{"a1", "a2", "a3"} {
		for _, v := range []string{"b1", "b2", "b3"} {
			facts += "E(" + u + "," + v + "). E(" + v + "," + u + "). "
		}
	}
	if _, err := cl.CreateStructure(ctx, "k33", facts, nil); err != nil {
		t.Fatal(err)
	}
	est, resp, err := cl.CountApprox(ctx, triangleQuery, "k33", 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sign() != 0 || !resp.Exact || resp.Samples != 0 || resp.RelError != 0 || resp.Converged == nil || !*resp.Converged {
		t.Fatalf("free triangle over K3,3 = %v %+v, want an exact, converged 0 with no sample", est, resp)
	}
}

// TestCountApproxFPTExact checks that an FPT query under mode=approx
// takes the exact path: the response carries the exact count, case fpt,
// zero rel_error and no samples.
func TestCountApproxFPTExact(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := cl.CreateStructure(ctx, "g", erFacts(t, 25, 0.3, 1), nil); err != nil {
		t.Fatal(err)
	}
	const pathQuery = "p(x,y,z) := E(x,y) & E(y,z)"
	exact, _, err := cl.Count(ctx, pathQuery, "g")
	if err != nil {
		t.Fatal(err)
	}
	est, resp, err := cl.CountApprox(ctx, pathQuery, "g", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cmp(exact) != 0 {
		t.Fatalf("FPT approx %v != exact %v", est, exact)
	}
	if resp.Case != "fpt" || !resp.Exact || resp.RelError != 0 || resp.Samples != 0 || resp.Confidence != 1 {
		t.Fatalf("FPT response carries sampling telemetry: %+v", resp)
	}
}

// TestCountBatchApproxArrays checks the batch contract: per-structure
// estimate/rel_error/confidence/case/samples arrays aligned with counts.
func TestCountBatchApproxArrays(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	names := []string{"g1", "g2", "g3"}
	for i, name := range names {
		if _, err := cl.CreateStructure(ctx, name, erFacts(t, 30+3*i, 0.25, int64(i+1)), nil); err != nil {
			t.Fatal(err)
		}
	}
	ests, resp, err := cl.CountBatchWith(ctx, CountBatchRequest{
		Query: triangleQuery, Structures: names, Mode: "approx", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != len(names) {
		t.Fatalf("got %d results for %d structures", len(ests), len(names))
	}
	if len(resp.Estimates) != len(names) || len(resp.RelErrors) != len(names) ||
		len(resp.Confidences) != len(names) || len(resp.Cases) != len(names) ||
		len(resp.Samples) != len(names) || len(resp.Converged) != len(names) {
		t.Fatalf("approx arrays misaligned: %d/%d/%d/%d/%d/%d for %d structures",
			len(resp.Estimates), len(resp.RelErrors), len(resp.Confidences),
			len(resp.Cases), len(resp.Samples), len(resp.Converged), len(names))
	}
	for i := range names {
		if resp.Estimates[i] != resp.Counts[i] {
			t.Fatalf("structure %d: estimate %q != count %q", i, resp.Estimates[i], resp.Counts[i])
		}
		if resp.Cases[i] != "sharp-clique" && resp.Cases[i] != "clique" {
			t.Fatalf("structure %d: case %q, want a hard case", i, resp.Cases[i])
		}
		if resp.Samples[i] == 0 || !resp.Converged[i] {
			t.Fatalf("structure %d: samples=%d converged=%v, want a converged sampled estimate", i, resp.Samples[i], resp.Converged[i])
		}

		// Cross-check against the exact count per structure.
		exact, _, err := cl.Count(ctx, triangleQuery, names[i])
		if err != nil {
			t.Fatal(err)
		}
		ef, _ := new(big.Float).SetInt(exact).Float64()
		gf, _ := new(big.Float).SetInt(ests[i]).Float64()
		if ef == 0 {
			continue
		}
		if rel := (gf - ef) / ef; rel > 0.4 || rel < -0.4 {
			t.Fatalf("structure %d: estimate %v too far from exact %v", i, ests[i], exact)
		}
	}
}

// TestHardExactAdmission checks the admission rule: with HardExactLimit
// set, exact execution of a hard query on an oversized structure is a
// typed 422 carrying the trichotomy case, while approx mode and FPT
// queries stay admitted.
func TestHardExactAdmission(t *testing.T) {
	_, cl := newTestServer(t, Config{HardExactLimit: 10})
	ctx := context.Background()
	if _, err := cl.CreateStructure(ctx, "g", erFacts(t, 40, 0.25, 3), nil); err != nil {
		t.Fatal(err)
	}

	_, _, err := cl.Count(ctx, triangleQuery, "g")
	if err == nil {
		t.Fatal("exact hard count above the limit was admitted")
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if ae.Status != 422 {
		t.Fatalf("status = %d, want 422", ae.Status)
	}
	if ae.Case != "sharp-clique" && ae.Case != "clique" {
		t.Fatalf("rejection case = %q, want a hard case", ae.Case)
	}

	// The same query in approx mode is admitted.
	if _, _, err := cl.CountApprox(ctx, triangleQuery, "g", 0.1, 0.05); err != nil {
		t.Fatalf("approx mode rejected: %v", err)
	}
	// An FPT query is admitted exactly, regardless of structure size.
	if _, _, err := cl.Count(ctx, "p(x,y) := E(x,y)", "g"); err != nil {
		t.Fatalf("FPT exact count rejected: %v", err)
	}
	// Batch admission rejects with the same typed error.
	_, _, err = cl.CountBatch(ctx, triangleQuery, []string{"g"})
	if !errors.As(err, &ae) || ae.Status != 422 || ae.Case == "" {
		t.Fatalf("batch admission: want typed 422 with case, got %v", err)
	}
	// So does a subscription read; subscribing itself computes nothing.
	sub, err := cl.Subscribe(ctx, triangleQuery, "g")
	if err != nil {
		t.Fatalf("subscribing to a hard query rejected: %v", err)
	}
	_, _, err = cl.SubscriptionCount(ctx, sub.ID)
	if !errors.As(err, &ae) || ae.Status != 422 || ae.Case == "" {
		t.Fatalf("subscription read admission: want typed 422 with case, got %v", err)
	}
}

// TestCountModeValidation checks that an unknown mode is a 400.
func TestCountModeValidation(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := cl.CreateStructure(ctx, "g", "E(a,b).", nil); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.CountWith(ctx, CountRequest{Query: "p(x,y) := E(x,y)", Structure: "g", Mode: "bogus"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("want 400 for unknown mode, got %v", err)
	}
}
