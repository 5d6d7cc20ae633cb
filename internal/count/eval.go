package count

import (
	"fmt"
	"math/big"

	"repro/internal/logic"
	"repro/internal/structure"
)

// Env maps variable names to element indices of the structure under
// evaluation.
type Env map[logic.Var]int

// EvalEP decides B, f ⊨ φ for an arbitrary ep-formula: the reference
// satisfaction semantics (Section 2.1).  Variables not bound by env or a
// quantifier cause an error.
func EvalEP(b *structure.Structure, env Env, f logic.Formula) (bool, error) {
	switch g := f.(type) {
	case logic.Truth:
		return true, nil
	case logic.Atom:
		t := make([]int, len(g.Args))
		for i, v := range g.Args {
			e, ok := env[v]
			if !ok {
				return false, fmt.Errorf("count: unbound variable %s", v)
			}
			t[i] = e
		}
		return b.HasTuple(g.Rel, t), nil
	case logic.And:
		l, err := EvalEP(b, env, g.L)
		if err != nil || !l {
			return false, err
		}
		return EvalEP(b, env, g.R)
	case logic.Or:
		l, err := EvalEP(b, env, g.L)
		if err != nil || l {
			return l, err
		}
		return EvalEP(b, env, g.R)
	case logic.Exists:
		old, had := env[g.V]
		for e := 0; e < b.Size(); e++ {
			env[g.V] = e
			ok, err := EvalEP(b, env, g.Body)
			if err != nil {
				return false, err
			}
			if ok {
				if had {
					env[g.V] = old
				} else {
					delete(env, g.V)
				}
				return true, nil
			}
		}
		if had {
			env[g.V] = old
		} else {
			delete(env, g.V)
		}
		return false, nil
	default:
		return false, fmt.Errorf("count: unknown formula node %T", f)
	}
}

// EPDirect counts |φ(B)| by enumerating every assignment of the liberal
// variables and evaluating the formula: the reference (exponential)
// semantics the engine and EPUnion are tested against.
func EPDirect(q logic.Query, b *structure.Structure) (*big.Int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	n := b.Size()
	total := new(big.Int)
	one := big.NewInt(1)
	vals := make([]int, len(q.Lib))
	env := make(Env, len(q.Lib))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(q.Lib) {
			ok, err := EvalEP(b, env, q.F)
			if err != nil {
				return err
			}
			if ok {
				total.Add(total, one)
			}
			return nil
		}
		for e := 0; e < n; e++ {
			vals[i] = e
			env[q.Lib[i]] = e
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(env, q.Lib[i])
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return total, nil
}
