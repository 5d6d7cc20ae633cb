package engine

import (
	"sync"
	"sync/atomic"
)

// Per-session arena allocation: constraint-table rows and prefix-index
// slots are carved out of fixed-size chunks drawn from process-wide
// pools, so steady-state counting re-uses the same memory instead of
// churning the garbage collector, and a session's entire table memory
// returns to the pools in O(chunks) when the session is retired
// (SessionFor replacement, LRU eviction, ReleaseSession).
//
// Lifetime is tied to the session through reference counting
// (Session.acquirePin/releasePin): executor entry points pin the session
// for the duration of a count, retirement frees the chunks only once the
// last pin drops, and a stale session used after its arena was freed
// degrades safely to plain heap allocation (the arena is marked dead and
// its memo maps were wiped, so nothing can point into recycled chunks).

// arenaChunkI32 is the chunk granularity of the int32 pool: 64Ki cells,
// 256 KiB.  Allocations larger than a chunk get a dedicated heap slice
// that is not recycled (rare: only tables past ~64k cells).
const arenaChunkI32 = 1 << 16

// arenaChunkU64 is the chunk granularity of the uint64 pool: 32Ki
// slots, 256 KiB.
const arenaChunkU64 = 1 << 15

var (
	chunkPoolI32 = sync.Pool{New: func() any { return make([]int32, arenaChunkI32) }}
	chunkPoolU64 = sync.Pool{New: func() any { return make([]uint64, arenaChunkU64) }}
)

// arenaChunksLive counts pooled chunks currently held by live arenas —
// the balance the session-eviction leak test asserts returns to its
// baseline.  (Chunks inside the pools are not "live": they are shared
// standby capacity.)
var arenaChunksLive atomic.Int64

// ArenaChunksLive reports the number of pooled arena chunks currently
// held by live sessions (telemetry; exposed for leak tests and stats).
func ArenaChunksLive() int64 { return arenaChunksLive.Load() }

// arena is one session's chunked allocator.  Allocations are bump
// pointers into the current chunk of each element type; free returns
// every pooled chunk and marks the arena dead, after which further
// allocations fall back to the heap.  Safe for concurrent use (table
// materialization and index binding run concurrently across plans).
type arena struct {
	mu     sync.Mutex
	curI32 []int32
	curU64 []uint64
	ownI32 [][]int32
	ownU64 [][]uint64
	dead   bool
}

// allocI32 returns a fresh []int32 of length and capacity exactly n
// (full capacity: callers append up to cap, and spare capacity would
// alias the chunk remainder handed to the next allocation).  Contents
// are unspecified — callers must not read before writing.
func (a *arena) allocI32(n int) []int32 {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]int32, n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dead {
		return make([]int32, n)
	}
	if n > arenaChunkI32 {
		return make([]int32, n) // oversized: dedicated, not recycled
	}
	if len(a.curI32) < n {
		c := chunkPoolI32.Get().([]int32)
		arenaChunksLive.Add(1)
		a.ownI32 = append(a.ownI32, c)
		a.curI32 = c
	}
	out := a.curI32[:n:n]
	a.curI32 = a.curI32[n:]
	return out
}

// allocU64 is allocI32 for uint64 slots.
func (a *arena) allocU64(n int) []uint64 {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]uint64, n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dead {
		return make([]uint64, n)
	}
	if n > arenaChunkU64 {
		return make([]uint64, n)
	}
	if len(a.curU64) < n {
		c := chunkPoolU64.Get().([]uint64)
		arenaChunksLive.Add(1)
		a.ownU64 = append(a.ownU64, c)
		a.curU64 = c
	}
	out := a.curU64[:n:n]
	a.curU64 = a.curU64[n:]
	return out
}

// free returns every pooled chunk and marks the arena dead.  The caller
// (Session retirement) guarantees nothing references arena memory any
// more: the session's table and plan memos are wiped in the same
// critical section.
func (a *arena) free() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dead {
		return
	}
	a.dead = true
	for _, c := range a.ownI32 {
		chunkPoolI32.Put(c[:arenaChunkI32])
		arenaChunksLive.Add(-1)
	}
	for _, c := range a.ownU64 {
		chunkPoolU64.Put(c[:arenaChunkU64])
		arenaChunksLive.Add(-1)
	}
	a.ownI32, a.ownU64, a.curI32, a.curU64 = nil, nil, nil, nil
}
