package main

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/structure"
)

// The correctness oracle.  Expected counts are computed inside the
// benchmark process on mirrored structures, never by the servers under
// test: count.EPDirect (brute-force reference semantics) where the
// assignment space is small enough, otherwise core.Counter with the FPT
// engine (differential-tested against EPDirect in internal/count).

// epDirectLimit is the assignment-space bound |B|^vars up to which
// EPDirect is the oracle.
const epDirectLimit = 2e6

// epDirectEligible reports whether |B|^vars ≤ epDirectLimit for the
// query's variables (liberal and quantified).
func epDirectEligible(q logic.Query, b *structure.Structure) bool {
	vars := logic.AllVars(q.F)
	for _, v := range q.Lib {
		vars[v] = true
	}
	return math.Pow(float64(b.Size()), float64(len(vars))) <= epDirectLimit
}

// fptCount is the FPT-engine oracle.
func fptCount(q logic.Query, b *structure.Structure) (*big.Int, error) {
	c, err := core.NewCounter(q, b.Signature(), count.EngineFPT)
	if err != nil {
		return nil, err
	}
	return c.Count(b)
}

// oracleTable holds the expected count of every (fixed query,
// structure) pair of an instance and which oracle produced it.
type oracleTable struct {
	want   [][]*big.Int // [query][structure]
	direct [][]bool     // pair was also confirmed by EPDirect
}

// buildOracle fills the table for the given (query, structure) pairs
// with the FPT oracle, in parallel, and confirms the eligible pairs on
// the first directBudget structures with EPDirect (EPDirect costs |B|^vars
// formula evaluations, so it is rationed; a disagreement between the
// two oracles is an error).
func buildOracle(queries []string, structs []*structure.Structure, pairs [][2]int, directBudget int) (*oracleTable, error) {
	parsed := make([]logic.Query, len(queries))
	for i, src := range queries {
		q, err := parser.ParseQuery(src)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", src, err)
		}
		parsed[i] = q
	}
	t := &oracleTable{want: make([][]*big.Int, len(queries)), direct: make([][]bool, len(queries))}
	for i := range queries {
		t.want[i] = make([]*big.Int, len(structs))
		t.direct[i] = make([]bool, len(structs))
	}
	type job struct{ q, s int }
	jobs := make(chan job)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < oracleWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				v, err := fptCount(parsed[j.q], structs[j.s])
				if err == nil && j.s < directBudget && epDirectEligible(parsed[j.q], structs[j.s]) {
					var d *big.Int
					d, err = count.EPDirect(parsed[j.q], structs[j.s])
					if err == nil && d.Cmp(v) != 0 {
						err = fmt.Errorf("oracles disagree on %q: EPDirect %v, FPT %v", queries[j.q], d, v)
					}
					t.direct[j.q][j.s] = err == nil
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				t.want[j.q][j.s] = v
			}
		}()
	}
	for _, p := range pairs {
		jobs <- job{p[0], p[1]}
	}
	close(jobs)
	wg.Wait()
	return t, firstErr
}

// oracleWorkers is the oracle's parallelism: the reference host has two
// cores and nothing else runs while the oracle does.
const oracleWorkers = 2

// digraph is a dense directed graph on n vertices with out- and
// in-neighbourhoods as bitsets: the append-mix oracle.  That workload
// interleaves ~1000 appends with subscription reads, and every read
// must be checked at the exact version it observed; recounting with the
// engine at every version would cost more than the run, while these two
// closed forms cost microseconds.  The final state is cross-checked
// against the FPT oracle, so a wrong closed form cannot pass silently.
type digraph struct {
	n, words int
	out, in  []uint64 // n rows of `words` words each
}

func newDigraph(n int) *digraph {
	w := (n + 63) / 64
	return &digraph{n: n, words: w, out: make([]uint64, n*w), in: make([]uint64, n*w)}
}

func (g *digraph) addEdge(u, v int) {
	g.out[u*g.words+v/64] |= 1 << (v % 64)
	g.in[v*g.words+u/64] |= 1 << (u % 64)
}

func (g *digraph) hasEdge(u, v int) bool {
	return g.out[u*g.words+v/64]&(1<<(v%64)) != 0
}

// paths2 returns |{b : E(a,b) ∧ E(b,c)}|.
func (g *digraph) paths2(a, c int) int64 {
	n := 0
	oa, ic := g.out[a*g.words:(a+1)*g.words], g.in[c*g.words:(c+1)*g.words]
	for i := range oa {
		n += bits.OnesCount64(oa[i] & ic[i])
	}
	return int64(n)
}

// triangles counts the answers of tri(x,y,z) := E(x,y) & E(y,z) & E(z,x)
// (homomorphisms: loops and repeated vertices count).
func (g *digraph) triangles() int64 {
	var total int64
	for x := 0; x < g.n; x++ {
		for y := 0; y < g.n; y++ {
			if g.hasEdge(x, y) {
				total += g.paths2(y, x)
			}
		}
	}
	return total
}

// fourCycles counts the answers of
// c4(a,b,c,d) := E(a,b) & E(b,c) & E(c,d) & E(d,a).
func (g *digraph) fourCycles() int64 {
	p := make([]int64, g.n*g.n)
	for a := 0; a < g.n; a++ {
		for c := 0; c < g.n; c++ {
			p[a*g.n+c] = g.paths2(a, c)
		}
	}
	var total int64
	for a := 0; a < g.n; a++ {
		for c := 0; c < g.n; c++ {
			total += p[a*g.n+c] * p[c*g.n+a]
		}
	}
	return total
}

// digraphOf mirrors the E relation of b.
func digraphOf(b *structure.Structure) *digraph {
	g := newDigraph(b.Size())
	b.ForEachTuple("E", func(t []int) bool {
		g.addEdge(t[0], t[1])
		return true
	})
	return g
}
