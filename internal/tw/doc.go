// Package tw computes tree decompositions and treewidth.  The paper's
// tractability and contraction conditions (Section 2.4) are stated in
// terms of the treewidth of query-derived graphs, which are tiny (their
// size is bounded by the parameter), so an exact branch-and-bound over
// elimination orders is affordable; greedy heuristics (min-fill,
// min-degree) provide upper bounds and decompositions for larger graphs,
// and MMD (maximum minimum degree) provides a lower bound.  The searches
// read internal/graph's bit rows in place; only the fill graph an
// elimination edits is a copy.
package tw
