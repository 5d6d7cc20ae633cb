package engine

import (
	"context"
	"math/big"

	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
)

// cancelPoll is the cooperative cancellation check of the simple
// (brute, projection) engines.  Unlike the executor's throttled
// per-row polling, it consults the done channel on every call: each
// unit of work here is a full homomorphism/extendability check — far
// more expensive than a non-blocking channel poll — so cancellation
// latency stays one check, not thousands.  The verdict latches; a nil
// done channel (an uncancellable context) makes every call a single
// comparison.
type cancelPoll struct {
	done <-chan struct{}
	hit  bool
}

func (c *cancelPoll) cancelled() bool {
	if c.done == nil {
		return false
	}
	if c.hit {
		return true
	}
	select {
	case <-c.done:
		c.hit = true
		return true
	default:
		return false
	}
}

// brutePlan enumerates every f : S → B and checks extendability — the
// reference semantics.  Nothing is precompiled; the plan is the formula.
type brutePlan struct {
	p pp.PP
}

func (pl *brutePlan) Engine() Name   { return Brute }
func (pl *brutePlan) Formula() pp.PP { return pl.p }

// CountIn polls ctx once per enumerated liberal assignment (before each
// extendability check) and aborts with ctx's error when it fires.
func (pl *brutePlan) CountIn(ctx context.Context, s *Session) (*big.Int, error) {
	if err := checkStructure(pl.p, s.B); err != nil {
		return nil, err
	}
	poll := &cancelPoll{done: ctx.Done()}
	v := pl.count(s.B, poll)
	if poll.hit {
		return nil, ctxAbortErr(ctx)
	}
	return v, nil
}

func (pl *brutePlan) count(b *structure.Structure, poll *cancelPoll) *big.Int {
	p := pl.p
	n := b.Size()
	total := new(big.Int)
	one := big.NewInt(1)
	pin := make(map[int]int, len(p.S))
	var rec func(i int)
	rec = func(i int) {
		if poll.hit {
			return
		}
		if i == len(p.S) {
			if poll.cancelled() {
				return
			}
			cp := make(map[int]int, len(pin))
			for k, v := range pin {
				cp[k] = v
			}
			if hom.Exists(p.A, b, hom.Options{Pin: cp}) {
				total.Add(total, one)
			}
			return
		}
		for e := 0; e < n; e++ {
			pin[p.S[i]] = e
			rec(i + 1)
		}
		delete(pin, p.S[i])
	}
	rec(0)
	return total
}

// projectionPlan counts per component (|φ(B)| = ∏|φᵢ(B)|, Section 2.1) and
// enumerates extendable liberal assignments with the propagating solver.
// The component split is done at compile time.
type projectionPlan struct {
	p     pp.PP
	comps []pp.PP
}

func newProjectionPlan(p pp.PP) *projectionPlan {
	return &projectionPlan{p: p, comps: p.Components()}
}

func (pl *projectionPlan) Engine() Name   { return Projection }
func (pl *projectionPlan) Formula() pp.PP { return pl.p }

// CountIn polls ctx between components and once per enumerated
// extendable assignment, aborting with ctx's error when it fires.
func (pl *projectionPlan) CountIn(ctx context.Context, s *Session) (*big.Int, error) {
	if err := checkStructure(pl.p, s.B); err != nil {
		return nil, err
	}
	poll := &cancelPoll{done: ctx.Done()}
	v := pl.count(s.B, poll)
	if poll.hit {
		return nil, ctxAbortErr(ctx)
	}
	return v, nil
}

func (pl *projectionPlan) count(b *structure.Structure, poll *cancelPoll) *big.Int {
	total := big.NewInt(1)
	for _, comp := range pl.comps {
		if poll.cancelled() {
			return total
		}
		factor := new(big.Int)
		if len(comp.S) == 0 {
			if hom.Exists(comp.A, b, hom.Options{}) {
				factor.SetInt64(1)
			}
		} else if comp.A.NumTuples() == 0 {
			// Isolated liberal variables: every assignment works.
			factor = structure.PowerSize(b, len(comp.S))
		} else {
			one := big.NewInt(1)
			hom.ForEachExtendable(comp.A, b, comp.S, hom.Options{}, func([]int) bool {
				factor.Add(factor, one)
				return !poll.cancelled()
			})
		}
		if factor.Sign() == 0 {
			return new(big.Int)
		}
		total.Mul(total, factor)
	}
	return total
}

// checkStructure validates the structure and its signature against the
// plan's formula; shared by the simple engines.
func checkStructure(p pp.PP, b *structure.Structure) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if !p.A.Signature().Equal(b.Signature()) {
		return errSignature(p, b)
	}
	return nil
}
