package classify

import (
	"fmt"
	"testing"

	"repro/internal/pp"
	"repro/internal/workload"
)

// TestAnalyzeKeyedMemoizes checks the memo contract directly: the first
// lookup under a fingerprint analyzes, every later lookup is a hit with
// the identical Report, and an empty fingerprint bypasses the memo.
func TestAnalyzeKeyedMemoizes(t *testing.T) {
	p, err := pp.New(workload.GraphStructure(workload.CompleteGraph(3)), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	sh := pp.ShapeOf(p)
	fp := fmt.Sprintf("memo-test-%p", t) // unique per run: never pre-seeded
	s0 := Stats()

	r1, hit := ReadKeyed(p, sh, fp)
	if hit {
		t.Fatal("first lookup reported a memo hit")
	}
	s1 := Stats()
	if s1.Analyses != s0.Analyses+1 || s1.Hits != s0.Hits {
		t.Fatalf("first lookup: stats %+v → %+v, want exactly one analysis", s0, s1)
	}

	for i := 0; i < 3; i++ {
		r2, hit := ReadKeyed(p, sh, fp)
		if !hit {
			t.Fatalf("lookup %d re-analyzed instead of hitting the memo", i+2)
		}
		if r2.CoreTreewidth != r1.CoreTreewidth || r2.ContractTreewidth != r1.ContractTreewidth ||
			r2.NumExistsComponents != r1.NumExistsComponents || r2.MaxInterface != r1.MaxInterface {
			t.Fatalf("memoized report drifted: %+v vs %+v", r2, r1)
		}
	}
	s2 := Stats()
	if s2.Analyses != s1.Analyses || s2.Hits != s1.Hits+3 {
		t.Fatalf("repeat lookups: stats %+v → %+v, want three hits and no analyses", s1, s2)
	}

	if _, hit := ReadKeyed(p, sh, ""); hit {
		t.Fatal("empty fingerprint must bypass the memo")
	}
	if s3 := Stats(); s3 != s2 {
		t.Fatalf("empty-fingerprint lookup touched the memo counters: %+v → %+v", s2, s3)
	}
}
