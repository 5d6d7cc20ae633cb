package count

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/engine"
	"repro/internal/pp"
	"repro/internal/structure"
)

// PPEngine selects an algorithm for counting pp-formula answers.  It is
// the engine.Name of the layered execution core; the constants below are
// re-exported for callers of this package.
type PPEngine = engine.Name

const (
	// EngineAuto uses the FPT engine.
	EngineAuto = engine.Auto
	// EngineBrute enumerates all |B|^|S| liberal assignments and tests
	// each for extendability: the reference semantics.
	EngineBrute = engine.Brute
	// EngineProjection factorizes over components and enumerates the
	// extendable liberal assignments by backtracking with propagation.
	EngineProjection = engine.Projection
	// EngineFPT runs the Theorem 2.11 pipeline: core, ∃-component
	// predicates, join-count DP over a contract-graph tree decomposition.
	EngineFPT = engine.FPT
	// EngineFPTNoCore is EngineFPT without the core step.
	EngineFPTNoCore = engine.FPTNoCore
)

// PP counts |φ(B)| for a pp-formula with the selected engine.  The
// formula is compiled to an engine.Plan (memoized across calls) and
// executed against b; callers holding a Plan directly avoid even the
// memoization lookup.
func PP(p pp.PP, b *structure.Structure, eng PPEngine) (*big.Int, error) {
	if !p.A.Signature().Equal(b.Signature()) {
		return nil, fmt.Errorf("count: formula signature %v differs from structure signature %v",
			p.A.Signature(), b.Signature())
	}
	pl, err := engine.Compile(p, eng)
	if err != nil {
		return nil, err
	}
	return countPlan(pl, b)
}

// countPlan executes a compiled plan against a structure, validated
// first, inside the structure's shared engine session.
func countPlan(pl engine.Plan, b *structure.Structure) (*big.Int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return engine.CountInCtx(context.Background(), pl, engine.SessionFor(b), 0)
}
