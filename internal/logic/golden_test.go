package logic_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/workload"
)

// disjunctsGolden is the SHA-256 of TestDisjunctsGolden's transcript: a
// disjunct, an atom order or a generated variable name that changes
// shows.
const disjunctsGolden = "060b0735e5ec16229a1fcc760a1db203cbdb2eddc7670b2969c589ede0655b04"

// TestDisjunctsGolden pins Query.Disjuncts — its disjuncts, their atom
// order and the names the conversion generates — over 500 random
// ep-queries of the cold-query stream's shape.
func TestDisjunctsGolden(t *testing.T) {
	h := sha256.New()
	for i := 0; i < 500; i++ {
		q := workload.RandomEPQuery(workload.EdgeSig(), 4, 6, 2, 5, 20160626+int64(i))
		for _, d := range q.Disjuncts() {
			fmt.Fprintln(h, i, d.Exist, d)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != disjunctsGolden {
		t.Fatalf("disjuncts transcript hash %s, want %s", got, disjunctsGolden)
	}
}
