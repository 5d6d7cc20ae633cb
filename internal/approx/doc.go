// Package approx implements a randomized approximate counting engine for
// the hard regime of the Chen–Mengel trichotomy (Theorem 3.2): pp-terms
// whose classification lands in case 2 (p-Clique-interreducible) or case 3
// (#Clique-hard), where no exact FPT algorithm exists unless standard
// parameterized-complexity assumptions fail.
//
// The estimator is a sequential importance sampler in the style of
// Knuth's unbiased tree-size estimator, run over the same GAC
// propagation the exact solver uses (hom.Sampler; on binary relations a
// revise is a few word operations on the solver's bit rows, and the
// first fixings are propagated once per value combination, when the
// sampler is built, so a draw costs well under a microsecond to a few
// microseconds and allocates nothing): a draw fixes the liberal
// variables one at a time, the memoized prefix (up to two variables) in
// proportion to the size of the domain each of its value combinations
// leaves the next variable and every later variable to a uniformly
// random member of its current propagated domain; it weighs the inverse
// of its probability (a Horvitz–Thompson weight) and checks the partial
// assignment extends to a full homomorphism.  Arc-consistency only
// deletes values with no supporting solution, so every answer survives
// every propagation step and is drawn with positive probability: the
// weighted indicator is exactly unbiased, E[weight · 1{extendable}] =
// |φ(B)|.  A prefix that no value combination survives proves the
// count zero, and the Result says so as an exact 0 with no draw.
//
// Gaifman components are counted apart and multiplied, as in the exact
// engine (|φ(B)| = ∏ᵢ |φᵢ(B)|).  The estimator splits its formula
// (pp.PP.Components) on its first Count, so a term counted only exactly
// never builds the component structures.  Count builds a sampler per
// sampled component; CountIn borrows warm ones from pools the caller
// keeps per structure version (core keeps them in the engine session,
// per term fingerprint and component), and a warm sampler draws exactly
// what a fresh one would.  Sentence components and isolated liberal
// variables contribute exact factors (hom.Exists, |B|^|S|); only
// components with both liberal variables and tuples are sampled, each
// with an (ε/k, δ/k) share of the requested budget so the product meets
// the overall target by a union bound.
//
// The adaptive sample budget targets a requested (ε, δ) guarantee with a
// normal-approximation confidence interval (z · s/√n, z from the inverse
// error function): sampling stops once the half-width drops below ε times
// the running mean, or the per-component MaxSamples cap is hit (reported
// via Result.Converged, and as "converged" on the wire).  The interval is asymptotic rather than a
// finite-sample Chernoff bound — the worst-case weight range R = ∏|dom⁰ᵥ|
// makes empirical-Bernstein stopping vacuous on realistic instances — and
// its coverage is validated empirically by the repeated-trial statistical
// suite in stat_test.go.  All randomness flows from a caller-provided
// seed (Params.Seed): each sampled component draws from a PCG source of
// two words, seeded by splitmix64 from it, so estimates are
// bit-reproducible and seeding costs next to nothing.
package approx
