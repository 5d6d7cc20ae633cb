package cliquered

import (
	"fmt"
	"math/big"

	"repro/internal/count"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/pp"
	"repro/internal/workload"
)

// CliqueQueryPP returns the free k-clique query as a pp-formula over
// {E/2}.
func CliqueQueryPP(k int) (pp.PP, error) {
	q := workload.CliqueQuery(k)
	return singlePP(q)
}

// CliqueSentencePP returns the Boolean k-clique query as a pp-formula.
func CliqueSentencePP(k int) (pp.PP, error) {
	q := workload.CliqueSentence(k)
	return singlePP(q)
}

func singlePP(q logic.Query) (pp.PP, error) {
	ds := q.Disjuncts()
	if len(ds) != 1 {
		return pp.PP{}, fmt.Errorf("cliquered: query %v is not primitive positive", q)
	}
	return pp.FromDisjunct(workload.EdgeSig(), q.Lib, ds[0])
}

// CountCliquesViaQuery counts the k-cliques of g by counting the answers
// of the free k-clique query on the symmetric encoding of g and dividing
// by k! — the reduction that makes case-3 families #Clique-hard.
func CountCliquesViaQuery(g *graph.Graph, k int) (*big.Int, error) {
	if k <= 0 {
		return big.NewInt(1), nil
	}
	p, err := CliqueQueryPP(k)
	if err != nil {
		return nil, err
	}
	b := workload.GraphStructure(g)
	if b.Size() == 0 {
		return new(big.Int), nil
	}
	answers, err := count.PP(p, b)
	if err != nil {
		return nil, err
	}
	// The encoding is symmetric and loop-free, so answers are exactly the
	// ordered k-cliques: divide by k!.
	fact := big.NewInt(1)
	for i := 2; i <= k; i++ {
		fact.Mul(fact, big.NewInt(int64(i)))
	}
	q, r := new(big.Int).QuoRem(answers, fact, new(big.Int))
	if r.Sign() != 0 {
		return nil, fmt.Errorf("cliquered: answer count %v not divisible by %d! (encoding bug)", answers, k)
	}
	return q, nil
}

// HasCliqueViaQuery decides k-clique existence through the Boolean clique
// query — the case-2 shape (model checking a quantified clique).
func HasCliqueViaQuery(g *graph.Graph, k int) (bool, error) {
	if k <= 0 {
		return true, nil
	}
	p, err := CliqueSentencePP(k)
	if err != nil {
		return false, err
	}
	b := workload.GraphStructure(g)
	if b.Size() == 0 {
		return false, nil
	}
	c, err := count.PP(p, b)
	if err != nil {
		return false, err
	}
	return c.Sign() > 0, nil
}
