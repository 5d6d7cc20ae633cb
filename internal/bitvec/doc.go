// Package bitvec is the repository's one word kernel.  A set of values of
// a universe is a []uint64 bitmap, 64 values a word, and a binary
// relation over it is a bit matrix of such rows.  The loops over them —
// and, or, popcount, and-not popcount, for-each-bit and transpose — live
// here, written to vectorize, for every package that keeps value-space
// rows: the join executor's tables, row tails and semi-join prune
// (internal/engine), the hom solver's domains and revise kernels
// (internal/hom), and the fill graph of the treewidth search
// (internal/tw).  It imports nothing of the repository.
package bitvec
