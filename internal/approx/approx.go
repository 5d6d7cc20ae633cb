package approx

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	randv2 "math/rand/v2"
	"sync"

	"repro/internal/hom"
	"repro/internal/pp"
	"repro/internal/structure"
)

// Params configures one approximate count: the (ε, δ) target, the
// per-component sampling caps, and the RNG seed.  The zero value selects
// the defaults via withDefaults.
type Params struct {
	// Epsilon is the target relative error (default 0.1).
	Epsilon float64
	// Delta is the target failure probability: with probability ≥ 1-δ
	// the estimate is within ±ε·count (default 0.05).
	Delta float64
	// MaxSamples caps the draws spent on each sampled component
	// (default 200000).  Hitting the cap before the interval closes is
	// reported via Result.Converged=false.
	MaxSamples int
	// MinSamples is the minimum number of draws before the stopping
	// rule is consulted (default 256).
	MinSamples int
	// Seed seeds the estimator's RNG; the same seed yields the same
	// estimate.  0 selects the default seed 1.
	Seed int64
}

// withDefaults fills zero fields with the package defaults.
func (p Params) withDefaults() Params {
	if p.Epsilon <= 0 {
		p.Epsilon = 0.1
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		p.Delta = 0.05
	}
	if p.MaxSamples <= 0 {
		p.MaxSamples = 200000
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 256
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Result is one approximate count: the point estimate with its error
// bound and the budget actually spent.
type Result struct {
	// Estimate is the point estimate of |φ(B)| (rounded to the nearest
	// integer).
	Estimate *big.Int
	// RelErr is the achieved relative half-width of the confidence
	// interval (0 when the count was computed exactly).
	RelErr float64
	// AbsErr is the corresponding absolute half-width.
	AbsErr float64
	// Confidence is the probability the true count lies within
	// Estimate·(1±RelErr): 1-δ for sampled results, 1 for exact ones.
	Confidence float64
	// Samples is the total number of draws spent across components.
	Samples int
	// Exact reports that every component was resolved exactly (no
	// sampling happened); RelErr is then 0 and Confidence 1.
	Exact bool
	// Converged reports whether every sampled component closed its
	// interval below its ε share before hitting MaxSamples.
	Converged bool
}

// Estimator is an approximate-counting plan for one pp-formula, split
// into its Gaifman components as the exact engine is.  The components
// are built once, on the first Count, so a term that is only ever counted
// exactly never pays for them.  An Estimator is safe for concurrent Count
// calls: each call builds its own samplers, or borrows warm ones that no
// other call holds (CountIn).
type Estimator struct {
	p     pp.PP
	once  sync.Once
	comps []pp.PP
}

// New returns the estimator of p.  It builds nothing.
func New(p pp.PP) *Estimator { return &Estimator{p: p} }

// Formula returns the pp-formula the estimator was compiled from.
func (e *Estimator) Formula() pp.PP { return e.p }

// components returns p's Gaifman components (pp.PP.Components), built on
// the first call.
func (e *Estimator) components() []pp.PP {
	e.once.Do(func() { e.comps = e.p.Components() })
	return e.comps
}

// zQuantile returns the two-sided normal critical value for failure
// probability delta: P(|Z| > z) = delta.
func zQuantile(delta float64) float64 {
	return math.Sqrt2 * math.Erfinv(1-delta)
}

// splitmix advances a splitmix64 state; used to derive independent
// per-component seeds from the caller's single seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pcgSource adapts math/rand/v2's PCG, whose state is two words, to
// the math/rand.Source64 that hom.Sampler draws from.
type pcgSource struct{ randv2.PCG }

func (p *pcgSource) Int63() int64 { return int64(p.Uint64() >> 1) }

// Seed seeds the PCG with seed and seed's splitmix64 successor.
func (p *pcgSource) Seed(seed int64) { p.PCG.Seed(uint64(seed), splitmix(uint64(seed))) }

// compEstimate is one sampled component's outcome.
type compEstimate struct {
	mean      float64
	absErr    float64
	samples   int
	converged bool
}

// sampleComponent runs the adaptive sampling loop for one component with
// an (eps, delta) share of the overall budget.
func sampleComponent(ctx context.Context, sp *hom.Sampler, rng *rand.Rand, eps, delta float64, minS, maxS int) (compEstimate, error) {
	if sp.ExactZero() {
		return compEstimate{converged: true}, nil
	}
	z := zQuantile(delta)
	var (
		n, nonzero float64
		sum, sumsq float64
	)
	const batch = 64
	done := ctx.Done()
	for int(n) < maxS {
		select {
		case <-done:
			return compEstimate{}, ctx.Err()
		default:
		}
		for i := 0; i < batch && int(n) < maxS; i++ {
			w := sp.Sample(rng)
			n++
			if w != 0 {
				nonzero++
				sum += w
				sumsq += w * w
			}
		}
		if int(n) < minS || nonzero < 16 {
			continue
		}
		mean := sum / n
		variance := (sumsq - n*mean*mean) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		radius := z * math.Sqrt(variance/n)
		if mean > 0 && radius <= eps*mean {
			return compEstimate{mean: mean, absErr: radius, samples: int(n), converged: true}, nil
		}
	}
	// Budget exhausted: report the interval actually achieved.  With no
	// successful draw at all the mean and the radius are both 0 and no
	// relative bound exists (Count then reports RelErr 1).  A single draw
	// has no sample variance either: its interval is as wide as the
	// estimate itself.
	mean := sum / n
	radius := mean
	if n > 1 {
		variance := (sumsq - n*mean*mean) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		radius = z * math.Sqrt(variance/n)
	}
	return compEstimate{mean: mean, absErr: radius, samples: int(n), converged: false}, nil
}

// Count estimates |φ(B)| to the requested (ε, δ) target.  Sentence
// components and isolated liberal variables are resolved exactly; every
// other component is sampled with an (ε/k, δ/k) share of the budget.
// The same Params.Seed always yields the same Result.
func (e *Estimator) Count(ctx context.Context, b *structure.Structure, prm Params) (Result, error) {
	return e.CountIn(ctx, b, prm, nil)
}

// CountIn is Count with warm samplers: pools(i) is the pool that keeps
// component i's samplers on b, and must hold only samplers built on b as
// it is now (a pool per structure version).  The count borrows one, or
// builds one if the pool has none, and gives it back when done; a warm
// sampler carries the memo of its first fixings, prefilled when it was
// built (hom.Sampler), and draws exactly what a fresh one draws, so the
// Result does not depend on the pools.  A nil pools builds every sampler afresh.
func (e *Estimator) CountIn(ctx context.Context, b *structure.Structure, prm Params, pools func(comp int) *sync.Pool) (Result, error) {
	prm = prm.withDefaults()
	if err := b.Validate(); err != nil {
		return Result{}, err
	}
	if !e.p.A.Signature().Equal(b.Signature()) {
		return Result{}, fmt.Errorf("approx: structure signature does not match formula signature")
	}

	comps := e.components()
	sampled := 0
	for _, comp := range comps {
		if len(comp.S) > 0 && comp.A.NumAtoms() > 0 {
			sampled++
		}
	}

	res := Result{Confidence: 1, Converged: true, Exact: sampled == 0}
	prod := new(big.Float).SetPrec(128).SetInt64(1)
	relSum := 0.0
	seed := uint64(prm.Seed)
	for i, comp := range comps {
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		default:
		}
		switch {
		case len(comp.S) == 0:
			if !hom.Exists(comp.A, b, hom.Options{}) {
				return zeroResult(res), nil
			}
		case comp.A.NumAtoms() == 0:
			prod.Mul(prod, new(big.Float).SetPrec(128).SetInt(structure.PowerSize(b, len(comp.S))))
		default:
			seed = splitmix(seed + uint64(i))
			src := new(pcgSource)
			src.Seed(int64(seed))
			rng := rand.New(src)
			var pool *sync.Pool
			if pools != nil {
				pool = pools(i)
			}
			w := borrow(pool, comp, b)
			ce, err := sampleComponent(ctx, w.sp, rng,
				prm.Epsilon/float64(sampled), prm.Delta/float64(sampled),
				prm.MinSamples, prm.MaxSamples)
			zero := w.sp.ExactZero()
			if pool != nil {
				pool.Put(w)
			}
			if err != nil {
				return Result{}, err
			}
			res.Samples += ce.samples
			res.Converged = res.Converged && ce.converged
			if zero {
				return zeroResult(res), nil
			}
			if ce.mean == 0 {
				// No successful draw: the point estimate is 0 but no
				// relative bound was established.
				z := zeroResult(res)
				z.Exact = false
				z.Converged = false
				z.RelErr = 1
				z.Confidence = 1 - prm.Delta
				return z, nil
			}
			prod.Mul(prod, new(big.Float).SetPrec(128).SetFloat64(ce.mean))
			relSum += ce.absErr / ce.mean
		}
		if prod.Sign() == 0 {
			return zeroResult(res), nil
		}
	}

	res.Estimate = roundToInt(prod)
	res.RelErr = relSum
	estF, _ := prod.Float64()
	res.AbsErr = relSum * estF
	if sampled > 0 {
		res.Confidence = 1 - prm.Delta
	}
	return res, nil
}

// warmSampler is a pooled sampler with the component it was built for.
type warmSampler struct {
	a  *structure.Atoms
	sp *hom.Sampler
}

// borrow returns a sampler of comp on b: one from pool if it holds one
// built for comp, else a new one.  Core keys a pool by a term's
// fingerprint, which counting-equivalent formulas share, so it may hold
// the sampler of another formula of the class; that one is dropped.
func borrow(pool *sync.Pool, comp pp.PP, b *structure.Structure) *warmSampler {
	if pool != nil {
		if w, _ := pool.Get().(*warmSampler); w != nil && w.a == comp.A {
			return w
		}
	}
	return &warmSampler{a: comp.A, sp: hom.NewSampler(comp.A, b, comp.S, hom.Options{})}
}

// zeroResult finalizes a Result whose estimate was proven to be zero (a
// false sentence component, an initial domain wipeout, or an empty
// structure): the zero is certain, whatever sampling budget was already
// spent on other components.
func zeroResult(res Result) Result {
	res.Estimate = new(big.Int)
	res.RelErr = 0
	res.AbsErr = 0
	res.Confidence = 1
	res.Exact = true
	res.Converged = true
	return res
}

// roundToInt rounds a non-negative big.Float to the nearest integer.
func roundToInt(f *big.Float) *big.Int {
	half := new(big.Float).SetPrec(f.Prec()).SetFloat64(0.5)
	v, _ := new(big.Float).SetPrec(f.Prec()).Add(f, half).Int(nil)
	return v
}
