package engine

import (
	"context"
	"sync"
	"testing"

	"repro/internal/workload"
)

// Arena allocations must have exact capacity (spare capacity would alias
// the chunk remainder handed to the next allocation) and free must
// return every pooled chunk to the process pools.
func TestArenaExactCapacityAndFree(t *testing.T) {
	base := ArenaChunksLive()
	a := &arena{}
	s1 := a.allocI32(100)
	if len(s1) != 100 || cap(s1) != 100 {
		t.Fatalf("allocI32(100): len %d cap %d, want 100/100", len(s1), cap(s1))
	}
	s2 := a.allocI32(50)
	for i := range s1 {
		s1[i] = 1
	}
	for i := range s2 {
		s2[i] = 2
	}
	for _, v := range s1 {
		if v != 1 {
			t.Fatal("adjacent arena allocations alias")
		}
	}
	u := a.allocU64(1000)
	if len(u) != 1000 || cap(u) != 1000 {
		t.Fatalf("allocU64(1000): len %d cap %d", len(u), cap(u))
	}
	// Oversized allocations bypass the pools entirely.
	huge := a.allocI32(arenaChunkI32 + 1)
	if len(huge) != arenaChunkI32+1 {
		t.Fatal("oversized allocation wrong length")
	}
	if ArenaChunksLive() <= base {
		t.Fatal("pooled chunks not accounted as live")
	}
	a.free()
	if live := ArenaChunksLive(); live != base {
		t.Fatalf("free left %d chunks live, want %d", live, base)
	}
	// A dead arena degrades to plain heap allocation.
	h := a.allocI32(10)
	if len(h) != 10 {
		t.Fatal("dead arena fallback failed")
	}
	if ArenaChunksLive() != base {
		t.Fatal("dead arena drew from the pools")
	}
}

// The pin protocol: counts racing session retirement must either hold
// the arena alive (pin won) or fall back to heap-backed rebuilds (pin
// lost after free) — never corrupt results.  Exercised under -race.
func TestSessionPinRetireRace(t *testing.T) {
	sig := workload.EdgeSig()
	p := compilePP(t, sig, "q(x,y,z) := E(x,y) & E(y,z)")
	pl, err := Compile(p, FPT)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		b := workload.RandomStructure(sig, 8, 0.5, int64(trial))
		s := SessionFor(b)
		want, err := pl.CountIn(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Post-retirement counts rebuild heap-backed tables; the
				// value must be unchanged either way.
				got, err := pl.CountIn(context.Background(), s)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Cmp(want) != 0 {
					t.Errorf("trial %d: count %v after retirement race, want %v", trial, got, want)
				}
			}()
		}
		ReleaseSession(b)
		wg.Wait()
	}
}
