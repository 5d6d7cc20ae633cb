package tw

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// treewidthGolden is the SHA-256 of TestTreewidthGolden's transcript: a
// decomposition that changes in any bag, bag order or parent pointer
// changes it, whether or not its width does — the plans the engine
// compiles are placed on all three.
const treewidthGolden = "584e13166d7d89bb04c844e22635fbbe26de1cc8361de19809640392f16d19cc"

// TestTreewidthGolden pins Treewidth on every labelled graph on at most
// six vertices: its width, exact flag, bags and parents, then the same
// decomposition after RerootAt (the last vertex and its neighbours, a
// star that need not be a clique) and Reduce, as pp.ShapeOf edits it.
func TestTreewidthGolden(t *testing.T) {
	h := sha256.New()
	for n := 0; n <= 6; n++ {
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			g := graph.New(n)
			for i, e := range pairs {
				if mask&(1<<i) != 0 {
					g.AddEdge(e[0], e[1])
				}
			}
			width, dec, exact := Treewidth(g)
			fmt.Fprintln(h, n, mask, width, exact, dec.Bags, dec.Parent)
			if n > 0 {
				dec.RerootAt(append(g.Neighbors(n-1), n-1))
			}
			dec.Reduce()
			fmt.Fprintln(h, dec.Bags, dec.Parent)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != treewidthGolden {
		t.Fatalf("treewidth transcript hash %s, want %s", got, treewidthGolden)
	}
}
