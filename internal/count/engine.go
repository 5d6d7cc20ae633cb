package count

import "repro/internal/engine"

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
