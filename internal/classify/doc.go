// Package classify operationalizes the trichotomy theorem (Theorem 3.2).
// For a pp-formula it reports the two quantities the classification is
// stated in: the treewidth of the core and the treewidth of the contract
// graph (Section 2.4).  It computes neither: a Report is read off the
// core's pp.Shape (Read), the derivation the engine compiles its plan
// from, so classify imports neither internal/graph nor internal/tw, and
// the widths it reports are the widths the plan runs on.  For an
// ep-formula it first computes φ⁺
// (Theorem 3.1) and takes worst cases over its members.  For a
// parameterized query family it reports the growth of both widths, which
// is what distinguishes the three cases:
//
//	case 1 (FPT):            contract tw bounded and core tw bounded
//	case 2 (p-Clique-equiv): contract tw bounded, core tw unbounded
//	case 3 (p-#Clique-hard): contract tw unbounded
//
// The trichotomy is a statement about infinite classes; for finite inputs
// the package reports measured widths and the case a family generating
// them would fall into relative to supplied bounds.
package classify
