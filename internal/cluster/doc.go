// Package cluster turns a fleet of single-node epserved shards into
// one logical counting service.  A Coordinator is a serve.Backend
// composed of the shards' Backends and holds no HTTP code: behind the
// serve.Frontend every node has, it speaks the HTTP/JSON API of a
// single node (serve.Client works against it unchanged) because it is
// served by the same handlers.  Every operation starts from one
// name-resolution step — partitioned, plain, or the reserved name@pN
// of a partition part, which no client may address — and routes
// behind it: structure names map to shard nodes
// by a consistent-hash ring with virtual nodes (membership changes
// remap only the expected 1/(N+1) fraction of names), structures are
// created on R ring successors, and reads pick the replica a query
// hash points at — the same query on the same structure always lands
// where its count memo and engine session are already warm — failing
// over along the replica set on transport errors, 503 and 504.
// Scatter-gather /countBatch groups structures by their chosen shard,
// runs the per-shard batches concurrently over one pooled transport,
// reassembles results in request order, and reroutes a failed group's
// structures individually to surviving replicas instead of failing
// the request.  Appends route primary-first to every replica under
// one idempotency batch id (coordinator-minted when the client sent
// none), so the shard-side batch memos make the multi-replica apply
// exactly-once.
//
// The paper-grounded piece is the partitioned structure: a create
// with partitions > 1 splits the structure's domain along connected
// components of its Gaifman graph into shard-resident parts — a
// disjoint union, no tuple spans parts.  Counting against the logical
// structure then follows the inclusion–exclusion pipeline of
// Chen–Mengel (PODS'16) one level up: each φ⁻af term's quantifier-free
// part decomposes into connected components; a connected component
// with a liberal variable maps entirely into one part, so its count
// over the union is the sum of its per-part counts; a fully
// quantified component contributes a satisfiability bit (nonzero
// somewhere); isolated liberal variables contribute |B|^k for the
// whole logical domain.  The coordinator scatters the component
// queries over the parts, sums per component, and recombines exactly
// — bit-identical to a single node holding the whole structure, which
// the differential tests assert.
package cluster
