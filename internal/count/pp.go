package count

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/engine"
	"repro/internal/pp"
	"repro/internal/structure"
)

// PPEngine names the engine a Counter compiles its terms for.  It is the
// engine.Name of the layered execution core; both values name the one
// exact executor.
type PPEngine = engine.Name

const (
	// EngineAuto uses the FPT engine.
	EngineAuto = engine.Auto
	// EngineFPT runs the Theorem 2.11 pipeline: core, ∃-component
	// predicates, join-count DP over a contract-graph tree decomposition.
	EngineFPT = engine.FPT
)

// PP counts |φ(B)| for a pp-formula with the Theorem 2.11 engine: it
// compiles the formula and executes the plan against b, so a caller
// counting one formula many times holds on to an engine.Plan instead.
func PP(p pp.PP, b *structure.Structure) (*big.Int, error) {
	if !p.A.Signature().Equal(b.Signature()) {
		return nil, fmt.Errorf("count: formula signature %v differs from structure signature %v",
			p.A.Signature(), b.Signature())
	}
	pl, err := engine.Compile(p, engine.FPT)
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
