// Package count is the oracle: the reference semantics of |φ(B)| that the
// production counter (internal/core over internal/engine) is checked
// against.  Tests import it, and so does epcount -verify.
//
//   - EvalEP decides B, f ⊨ φ for an ep-formula by direct recursion;
//   - EPDirect counts |φ(B)| by evaluating every assignment of the
//     liberal variables (exponential);
//   - EPUnion counts by set-union enumeration of the prenex pp
//     disjuncts' answers, |⋃ψ ψ(B)|, sharing no inclusion–exclusion,
//     term pool or engine with the production path.
//
// It also re-exports the engine names (PPEngine, EngineAuto, EngineFPT)
// that the benchmark passes to core.NewCounter.  All counts are big.Int
// (they reach |B|^|lib φ|).
package count
