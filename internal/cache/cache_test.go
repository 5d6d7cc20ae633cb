package cache

import (
	"sync"
	"testing"
)

// A full cache holds exactly its cap, and each Add past it evicts one
// entry and counts it.
func TestEvictKeepsCap(t *testing.T) {
	c := New[int, int](4)
	for k := 0; k < 10; k++ {
		if v, loaded := c.Add(k, 10*k); loaded || v != 10*k {
			t.Fatalf("Add(%d) = %d, %v on a new key", k, v, loaded)
		}
		if st := c.Stats(); st.Len != min(k+1, 4) || st.Cap != 4 || st.Evictions != uint64(max(k-3, 0)) {
			t.Fatalf("after %d adds: %+v", k+1, st)
		}
	}
}

// Untouched entries leave in the order they came (FIFO); an entry hit
// since the hand last passed it gets a second chance, so the next
// untouched one goes in its stead.
func TestEvictSecondChanceOrder(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	c.Add("d", 4) // no bit set: evicts a, the oldest
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived: untouched entries must leave first-in first-out")
	}
	c.Get("b")    // b referenced
	c.Add("e", 5) // hand at b: clears its bit, evicts c
	for k, want := range map[string]bool{"b": true, "c": false, "d": true, "e": true} {
		if _, ok := c.Get(k); ok != want {
			t.Fatalf("after the second eviction %s resident = %v, want %v", k, ok, want)
		}
	}
	// Every resident entry is referenced now: the hand (at d, in the slot
	// a left) clears them all and comes back round to d.
	c.Add("f", 6)
	if _, ok := c.Get("d"); ok {
		t.Fatal("with every bit set the hand must sweep once and evict the entry it started at (d)")
	}
}

// A key that is present keeps its first value: Add returns it, loaded.
func TestAddKeepsResidentValue(t *testing.T) {
	c := New[string, *int](2)
	first, second := new(int), new(int)
	c.Add("k", first)
	if v, loaded := c.Add("k", second); !loaded || v != first {
		t.Fatalf("Add on a resident key = %p, %v; want the resident %p, true", v, loaded, first)
	}
	if st := c.Stats(); st.Len != 1 || st.Evictions != 0 {
		t.Fatalf("re-adding a resident key changed the cache: %+v", st)
	}
}

// An entry can be deleted while its value is still in use (a computation
// that failed): the holder keeps its value, the next Add of the key
// installs a fresh one, and a delete is no eviction.
func TestDeleteInFlightEntry(t *testing.T) {
	type entry struct{ done bool }
	c := New[string, *entry](2)
	inFlight, _ := c.Add("fp", &entry{})
	c.Add("other", &entry{done: true})
	c.Delete("fp")
	c.Delete("absent")
	if _, ok := c.Get("fp"); ok {
		t.Fatal("a deleted entry is still found")
	}
	fresh, loaded := c.Add("fp", &entry{done: true})
	if loaded || fresh == inFlight {
		t.Fatal("Add after Delete returned the deleted entry")
	}
	if inFlight.done {
		t.Fatal("Delete touched the value its holder still uses")
	}
	if st := c.Stats(); st.Len != 2 || st.Evictions != 0 {
		t.Fatalf("after a delete and a re-add: %+v, want 2 entries and no eviction", st)
	}
	// The ring stays consistent: deleting the hand's slot and refilling
	// still evicts one entry per Add past the cap.
	c.Delete("other")
	c.Add("x", &entry{})
	c.Add("y", &entry{})
	if st := c.Stats(); st.Len != 2 || st.Evictions != 1 {
		t.Fatalf("after refilling: %+v, want 2 entries and 1 eviction", st)
	}
}

// Stats counts every lookup as a hit or a miss, and All visits each
// entry once.
func TestStatsAndAll(t *testing.T) {
	c := New[int, string](8)
	for k := 0; k < 5; k++ {
		c.Add(k, "v")
	}
	for k := 0; k < 8; k++ {
		c.Get(k)
	}
	st := c.Stats()
	if st != (Stats{Len: 5, Cap: 8, Hits: 5, Misses: 3}) {
		t.Fatalf("Stats = %+v", st)
	}
	seen := map[int]bool{}
	for k, v := range c.All() {
		if seen[k] || v != "v" {
			t.Fatalf("All yielded %d=%q twice or with the wrong value", k, v)
		}
		seen[k] = true
	}
	if len(seen) != 5 {
		t.Fatalf("All yielded %d entries, want 5", len(seen))
	}
	// The loop ranges over a snapshot: its body may delete and look up.
	n := 0
	for k := range c.All() {
		c.Delete(k)
		c.Get(k)
		n++
	}
	if n != 5 || c.Stats().Len != 0 {
		t.Fatalf("deleting inside All: %d visited, %d left", n, c.Stats().Len)
	}
	if got := st.Plus(st); got != (Stats{Len: 10, Cap: 16, Hits: 10, Misses: 6}) {
		t.Fatalf("Plus = %+v", got)
	}
}

// A hit allocates nothing.
func TestGetHitAllocatesNothing(t *testing.T) {
	c := New[string, *int](4)
	c.Add("fp", new(int))
	if n := testing.AllocsPerRun(100, func() { c.Get("fp") }); n != 0 {
		t.Fatalf("Get hit: %v allocs, want 0", n)
	}
}

// Hits from many goroutines run under the read lock beside Adds that
// evict: under -race this checks that the reference bits are the only
// thing a hit writes, and every value read is the one added under its
// key.
func TestConcurrentHitsDuringEvict(t *testing.T) {
	c := New[int, int](16)
	for k := 0; k < 16; k++ {
		c.Add(k, k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i + g) % 24
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			c.Add(16+i%8, 16+i%8)
			if i%50 == 0 {
				c.Delete(i % 16)
			}
		}
	}()
	wg.Wait()
	if st := c.Stats(); st.Len > 16 || st.Hits+st.Misses != 4*2000 {
		t.Fatalf("after the race: %+v", st)
	}
}
