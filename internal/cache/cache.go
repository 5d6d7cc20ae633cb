package cache

import (
	"iter"
	"sync"
	"sync/atomic"
)

// Cache maps keys to values, holding at most a fixed number of entries.
// Past the cap, Add evicts by CLOCK (second chance): a hit sets its slot's
// reference bit, and a hand sweeping the ring of slots clears set bits and
// evicts the first slot whose bit is clear, so an entry never hit again
// goes first and a stream of one-shot keys cannot push out the entries
// being hit.  A hit takes only the read lock, setting the bit atomically,
// and allocates nothing; Add and Delete take the write lock.
type Cache[K comparable, V any] struct {
	mu    sync.RWMutex
	cap   int
	at    map[K]int // key → its slot
	slots []slot[K, V]
	hand  int

	hits, misses, evictions atomic.Uint64
}

type slot[K comparable, V any] struct {
	key K
	val V
	ref uint32 // set by a hit, cleared by the passing hand; atomic under the read lock
}

// Stats is a snapshot of a cache: its entries and cap, the lookups that
// found their key or not, and the entries evicted to make room.
type Stats struct {
	Len       int    `json:"len"`
	Cap       int    `json:"cap"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Plus returns the field-wise sum of two snapshots.
func (s Stats) Plus(o Stats) Stats {
	return Stats{s.Len + o.Len, s.Cap + o.Cap, s.Hits + o.Hits, s.Misses + o.Misses, s.Evictions + o.Evictions}
}

// New returns an empty cache holding at most capacity (≥ 1) entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, at: make(map[K]int)}
}

// Get returns the value under k and whether it was there, marking the
// entry referenced on a hit.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	c.mu.RLock()
	i, ok := c.at[k]
	if ok {
		s := &c.slots[i]
		v = s.val
		if atomic.LoadUint32(&s.ref) == 0 {
			atomic.StoreUint32(&s.ref, 1)
		}
	}
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Add puts v under k unless k is present, evicting one entry when full.
// It returns the value k then holds and whether that value was there
// before (v is dropped then): racing fills of a key all get the first.
func (c *Cache[K, V]) Add(k K, v V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.at[k]; ok {
		atomic.StoreUint32(&c.slots[i].ref, 1)
		return c.slots[i].val, true
	}
	if len(c.slots) < c.cap {
		c.at[k] = len(c.slots)
		c.slots = append(c.slots, slot[K, V]{key: k, val: v})
		return v, false
	}
	for ; c.slots[c.hand].ref != 0; c.hand = (c.hand + 1) % len(c.slots) {
		c.slots[c.hand].ref = 0 // no hit runs under the write lock
	}
	delete(c.at, c.slots[c.hand].key)
	c.slots[c.hand] = slot[K, V]{key: k, val: v}
	c.at[k] = c.hand
	c.hand = (c.hand + 1) % len(c.slots)
	c.evictions.Add(1)
	return v, false
}

// Delete removes k's entry, if any; Stats counts no eviction for it.
func (c *Cache[K, V]) Delete(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.at[k]
	if !ok {
		return
	}
	delete(c.at, k)
	last := len(c.slots) - 1
	if i != last {
		c.slots[i] = c.slots[last]
		c.at[c.slots[i].key] = i
	}
	c.slots[last] = slot[K, V]{} // drop the references for the collector
	c.slots = c.slots[:last]
	if c.hand >= last {
		c.hand = 0
	}
}

// All ranges over the entries as they were when the loop began, without
// marking them referenced; the loop body may use the cache.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		c.mu.RLock()
		snap := make([]slot[K, V], len(c.slots))
		for i := range c.slots { // field by field: a hit may be setting ref
			snap[i].key, snap[i].val = c.slots[i].key, c.slots[i].val
		}
		c.mu.RUnlock()
		for _, e := range snap {
			if !yield(e.key, e.val) {
				return
			}
		}
	}
}

// Stats returns a snapshot of the cache's size and counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{len(c.slots), c.cap, c.hits.Load(), c.misses.Load(), c.evictions.Load()}
}
