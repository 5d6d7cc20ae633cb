package hom

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/structure"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// poolCorpus draws the kernel tests' cases over every universe size and
// shuffles them, so consecutive calls move between small and large (A, B)
// pairs and a recycled solver is regrown and shrunk in turn.
func poolCorpus(perUniverse int, seed int64) []kernelCase {
	var cases []kernelCase
	for _, nB := range kernelUniverses {
		rng := rand.New(rand.NewSource(seed + int64(nB)))
		for i := 0; i < perUniverse; i++ {
			cases = append(cases, randomKernelCase(rng, nB))
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases
}

// smallSpace reports whether enumerating every map A → B is cheap enough
// for Count.
func smallSpace(c kernelCase) bool {
	n := 1
	for i := 0; i < c.A.Size(); i++ {
		if n *= c.B.Size(); n > 20000 {
			return false
		}
	}
	return true
}

// homResults renders Exists, Find, Count (on small spaces) and Retract of
// A (fixing its first element when the case pins one) for one case.
func homResults(c kernelCase, solve func(A *structure.Atoms, bs *structure.Structure, ba *structure.Atoms, opts Options) *solver) string {
	var fixed []int
	for v := range c.opts.Pin {
		fixed = append(fixed, v)
	}
	ex := solve(c.A, c.B, nil, c.opts).exists()
	sol, found := solve(c.A, c.B, nil, c.opts).find()
	cnt := "-"
	if smallSpace(c) {
		cnt = solve(c.A, c.B, nil, c.opts).count().String()
	}
	core := solve(c.A, nil, c.A, Options{}).retract(fixed)
	return fmt.Sprint(ex, sol, found, cnt, core)
}

// TestPooledSolverMatchesFresh runs the kernel tests' corpus through
// solvers built afresh, through one solver re-initialized for every call,
// and through the pooled public entry points, interleaving (A, B) pairs of
// different sizes: a recycled solver must answer exactly what a fresh one
// does.
func TestPooledSolverMatchesFresh(t *testing.T) {
	fresh := func(A *structure.Atoms, bs *structure.Structure, ba *structure.Atoms, opts Options) *solver {
		return new(solver).init(A, bs, ba, opts)
	}
	reused := new(solver)
	for i, c := range poolCorpus(40, 5000) {
		want := homResults(c, fresh)
		if got := homResults(c, reused.init); got != want {
			t.Fatalf("case %d (|A|=%d, |B|=%d): re-initialized solver gives %s, fresh %s", i, c.A.Size(), c.B.Size(), got, want)
		}
		var fixed []int
		for v := range c.opts.Pin {
			fixed = append(fixed, v)
		}
		sol, found := Find(c.A, c.B, c.opts)
		cnt := "-"
		if smallSpace(c) {
			cnt = Count(c.A, c.B, c.opts).String()
		}
		got := fmt.Sprint(Exists(c.A, c.B, c.opts), sol, found, cnt, Retract(c.A, fixed))
		if got != want {
			t.Fatalf("case %d (|A|=%d, |B|=%d): pooled calls give %s, fresh %s", i, c.A.Size(), c.B.Size(), got, want)
		}
	}
}

// TestConcurrentExistsAndRetract shares structures between goroutines that
// call Exists and Retract at once: each call takes a solver of its own
// from the pool, and B's posting lists, built by the row kernel's first
// read, are built once.  Retract takes B's body.  Run under -race.
func TestConcurrentExistsAndRetract(t *testing.T) {
	cases := poolCorpus(8, 6000)
	type result struct {
		exists bool
		core   string
	}
	want := make([]result, len(cases))
	for i, c := range cases {
		want[i] = result{newSolver(c.A, c.B, c.opts).exists(), fmt.Sprint(newSolver(structure.AtomsOf(c.B), c.B, Options{}).retract(nil))}
	}
	// The same corpus drawn again: its posting lists are not built yet.
	cases = poolCorpus(8, 6000)
	bodies := make([]*structure.Atoms, len(cases))
	for i, c := range cases {
		bodies[i] = structure.AtomsOf(c.B)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (k + g*len(cases)/8) % len(cases)
				c := cases[i]
				got := result{Exists(c.A, c.B, c.opts), fmt.Sprint(Retract(bodies[i], nil))}
				if got != want[i] {
					errs <- fmt.Sprintf("goroutine %d case %d: got %+v, want %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestExistsAllocatesNothingWhenWarm pins the pooled solver's cost model:
// once the pool holds a solver big enough, an existence test allocates
// nothing.  A fresh solver per call made it 14 allocations.
func TestExistsAllocatesNothingWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	a, b := structure.AtomsOf(pathStruct(4)), cycleStruct(6)
	_ = b.AddTuple("E", 0, 3)
	if !Exists(a, b, Options{}) {
		t.Fatal("the path P4 maps into C6")
	}
	if allocs := testing.AllocsPerRun(100, func() { Exists(a, b, Options{}) }); allocs != 0 {
		t.Fatalf("Exists allocates %v times per call when warm, want 0", allocs)
	}
}
