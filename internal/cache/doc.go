// Package cache is the repository's one bounded cache: a generic map
// with an entry cap and CLOCK (second-chance) eviction, whose hits take
// only a read lock and allocate nothing.  Every cache of the service
// runs on it — serve's counter cache, engine's fingerprint-keyed plan
// cache and session registry, each session's count and table memos, and
// each table's prefix indexes — and each reports one Stats.  It imports
// nothing of the repository.
package cache
