// Package graph provides simple undirected graphs and the graph problems
// the paper's classification hinges on: connected components (formula
// components, Section 2.1), and the clique decision and counting problems
// p-Clique and p-#Clique that anchor cases (2) and (3) of the trichotomy.
// A graph is an adjacency matrix of bit rows (internal/bitvec words), so
// components are word operations over vertex sets (Split), and
// internal/tw reads the rows in place.
package graph
