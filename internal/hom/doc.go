// Package hom decides and enumerates homomorphisms between finite
// relational structures.  A homomorphism h : A → B maps elements of A to
// elements of B so that every tuple of every relation of A is carried to a
// tuple of B (Section 2.1).  The engine is a constraint solver: variables
// are A's elements, domains are subsets of B's elements, the constraints
// are A's tuples.  A is always a formula's flat body (structure.Atoms);
// B (Target) is either a data Structure, whose posting lists and
// columns the row kernel reads, or another body, whose few atoms it
// scans with no index built — one solver and one init serve both.  It
// supports pinned partial maps, restricted domains, enumeration of the
// assignments of a projection set that extend to a homomorphism (the
// counting semantics of pp-formulas), and Retract, the core of a body
// under endomorphisms fixing chosen elements.  The
// query front-end (entailment, cores) runs on this solver directly: a pin
// per liberal variable stands for the singleton relations of the paper's
// aug(A,S).
//
// Propagation is generalized arc consistency on one worklist with two
// revise kernels.  A binary constraint R(x,y) on distinct variables is
// revised on R's value-space support rows — fwd[a] = {b : R(a,b)} and
// bwd[b] = {a : R(a,b)}, bitsets over B's universe built once per solver
// — in |dom| word operations (AC3^bit).  Constraints without rows (arity
// ≠ 2, a repeated variable, a relation too sparse for its universe; see
// structure.BitRowsFit) visit candidate B-tuples drawn from posting
// lists, or all of a body's atoms.  Arc consistency has a unique
// fixpoint, so the two kernels yield identical domains and everything
// derived from them — search order, sampler draws — does not depend on
// which one ran.  Every narrowing
// queues the narrowed variable's constraints, so a variable that becomes
// a singleton always has every constraint revised, and from then on a binary constraint R(x,y) on distinct
// variables with y = {b} is entailed (dom[x] ⊆ R⁻¹(b)): propagate
// queues it no more when x narrows, since only a wipe-out of x could
// break it, and that is caught at x.  On the approx-hard inputs this
// cuts a warm draw's revisions from 12.7 to 4.95 (free K4) and from
// 30.4 to 14.0 (free K5), with the same fixpoint.
//
// Sampler draws the approximate counter's Horvitz–Thompson samples: a
// draw fixes the liberal variables one at a time and propagates after
// each fixing.  The first fixing dominates a draw's revise work, yet its
// variable takes one of at most |B| values while an estimate makes
// hundreds of draws, so a Sampler propagates each first value once and
// keeps the resulting domains (or a dead mark) in a memo it carves at
// construction; a sampler whose liberal variables cover A skips the
// propagation after its last fixing, where every value left extends.
// Both rest on the unique fixpoint: each draw is bit-identical to
// fixing and propagating every variable.  A memo entry is therefore the
// draw itself, so a warm sampler draws exactly what a fresh one draws:
// one sampler may serve request after request on the same structure
// version, one at a time (approx keeps them in the engine session's
// pools).
//
// The query front end runs thousands of small homomorphism tests per
// query (a Retract per core, an Exists per entailment), so the calls
// that finish before they return — Exists, Retract, Find, Count,
// ForEachExtendable — take their solver from a sync.Pool and give it
// back: its arrays are regrown only when a call needs more than they
// hold, and a warm call on small structures allocates nothing.  A
// Sampler outlives its call and keeps a solver of its own.
package hom
