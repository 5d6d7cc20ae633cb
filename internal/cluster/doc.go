// Package cluster turns a fleet of single-node epserved shards into
// one logical counting service.  A Coordinator is a serve.Backend
// composed of the shards' Backends and holds no HTTP code: behind the
// serve.Frontend every node has, it speaks the HTTP/JSON API of a
// single node (serve.Client works against it unchanged) because it is
// served by the same handlers, and accepts the same structure names
// and request bodies.  Structure names map to shard nodes
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
// exactly-once.  Counting itself is the shards' alone: the coordinator
// parses no query and holds no structure.
package cluster
