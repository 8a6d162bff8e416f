// Package sensitivity quantifies how errors in the model's inputs
// propagate to its outputs — the paper's own caveat ("the further we
// predict, the higher chance that some predictions will go askew",
// Section 6.3) made quantitative. Two tools:
//
//   - Elasticities: the local log-log derivative of projected speedup
//     with respect to each input (mu, phi, area, power, bandwidth). An
//     elasticity of 1 means a 1% input error moves the answer 1%; an
//     elasticity of 0 means the input is not binding — which doubles as
//     a cross-check of the limiting-factor attribution.
//   - Monte Carlo intervals: speedup ranges under independent
//     multiplicative perturbations of the calibrated parameters.
package sensitivity

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/par"
)

// Optimizer is the evaluation surface a sensitivity study perturbs:
// optimize a design under one budget triple. core.Evaluator and every
// model backend satisfy it, so elasticities and Monte Carlo intervals
// apply to the whole Amdahl-extension family, not just the baseline.
type Optimizer interface {
	Optimize(d core.Design, f float64, b bounds.Budgets) (core.Point, error)
}

// Input identifies one perturbable model input.
type Input int

const (
	// Mu is the U-core relative performance.
	Mu Input = iota
	// Phi is the U-core relative power.
	Phi
	// Area is the chip area budget.
	Area
	// Power is the chip power budget.
	Power
	// Bandwidth is the off-chip bandwidth budget.
	Bandwidth
)

// Inputs lists every perturbable input.
var Inputs = []Input{Mu, Phi, Area, Power, Bandwidth}

// String names the input.
func (i Input) String() string {
	switch i {
	case Mu:
		return "mu"
	case Phi:
		return "phi"
	case Area:
		return "area"
	case Power:
		return "power"
	case Bandwidth:
		return "bandwidth"
	default:
		return fmt.Sprintf("Input(%d)", int(i))
	}
}

// perturb returns the design/budgets pair with one input scaled by k.
func perturb(d core.Design, b bounds.Budgets, in Input, k float64) (core.Design, bounds.Budgets) {
	switch in {
	case Mu:
		d.UCore.Mu *= k
	case Phi:
		d.UCore.Phi *= k
	case Area:
		b.Area *= k
	case Power:
		b.Power *= k
	case Bandwidth:
		b.Bandwidth *= k
	}
	return d, b
}

// Elasticity estimates d ln(speedup) / d ln(input) by a central
// difference with relative step h (e.g. 0.01). The design must be
// heterogeneous when perturbing Mu or Phi.
func Elasticity(ev Optimizer, d core.Design, f float64, b bounds.Budgets, in Input, h float64) (float64, error) {
	if h <= 0 || h >= 0.5 {
		return 0, errors.New("sensitivity: step h must be in (0, 0.5)")
	}
	if (in == Mu || in == Phi) && d.Kind != core.Het {
		return 0, errors.New("sensitivity: mu/phi only apply to heterogeneous designs")
	}
	up, bUp := perturb(d, b, in, 1+h)
	dn, bDn := perturb(d, b, in, 1-h)
	pUp, err := ev.Optimize(up, f, bUp)
	if err != nil {
		return 0, err
	}
	pDn, err := ev.Optimize(dn, f, bDn)
	if err != nil {
		return 0, err
	}
	return (math.Log(pUp.Speedup) - math.Log(pDn.Speedup)) /
		(math.Log(1+h) - math.Log(1-h)), nil
}

// Profile computes all applicable elasticities for a design point across
// a GOMAXPROCS worker pool. See ProfileCtx.
func Profile(ev Optimizer, d core.Design, f float64, b bounds.Budgets, h float64) (map[Input]float64, error) {
	return ProfileCtx(context.Background(), ev, d, f, b, h, 0)
}

// ProfileCtx fans the applicable inputs out over workers goroutines
// (<= 0 means GOMAXPROCS). Each elasticity is an independent pair of
// optimizations, so the result is identical at every worker count.
// Cancellation or an expired deadline stops the fan-out early and
// surfaces ctx.Err(), which is how the serving layer turns a request
// deadline into a 504.
func ProfileCtx(ctx context.Context, ev Optimizer, d core.Design, f float64, b bounds.Budgets, h float64, workers int) (map[Input]float64, error) {
	applicable := make([]Input, 0, len(Inputs))
	for _, in := range Inputs {
		if (in == Mu || in == Phi) && d.Kind != core.Het {
			continue
		}
		applicable = append(applicable, in)
	}
	es, err := par.Map(ctx, len(applicable), workers,
		func(_ context.Context, i int) (float64, error) {
			e, err := Elasticity(ev, d, f, b, applicable[i], h)
			if err != nil {
				return 0, fmt.Errorf("sensitivity: %v: %w", applicable[i], err)
			}
			return e, nil
		})
	if err != nil {
		return nil, err
	}
	out := make(map[Input]float64, len(applicable))
	for i, in := range applicable {
		out[in] = es[i]
	}
	return out, nil
}

// Interval is a Monte Carlo speedup range.
type Interval struct {
	Nominal float64
	P05     float64 // 5th percentile
	Median  float64
	P95     float64 // 95th percentile
	Samples int
}

// MonteCarlo evaluates the design under `samples` random perturbations
// across a GOMAXPROCS worker pool. See MonteCarloCtx.
func MonteCarlo(ev Optimizer, d core.Design, f float64, b bounds.Budgets, sigma float64, samples int, seed int64) (Interval, error) {
	return MonteCarloCtx(context.Background(), ev, d, f, b, sigma, samples, seed, 0)
}

// MonteCarloCtx evaluates the design under `samples` random
// perturbations: every input independently scaled by exp(sigma x N(0,1))
// (log-normal, so a sigma of 0.2 is roughly +-20%). Infeasible draws are
// skipped but counted against the sample budget; at least half must
// succeed.
//
// Samples fan out over workers goroutines (<= 0 means GOMAXPROCS). Each
// sample draws from its own deterministic RNG sub-stream: the math/rand
// stream of a seed derived from (seed, sample index), seeded lazily in
// O(draws) on a pooled generator, so a sample allocates nothing and no
// draw outlives the call. The surviving speedups are assembled in sample
// order and sorted once, so the interval is identical at every worker
// count. Cancellation or an expired deadline stops the sample fan-out
// early and surfaces ctx.Err() so callers (the serving layer) can
// distinguish a timeout from an infeasible study.
func MonteCarloCtx(ctx context.Context, ev Optimizer, d core.Design, f float64, b bounds.Budgets, sigma float64, samples int, seed int64, workers int) (Interval, error) {
	if sigma <= 0 || samples < 10 {
		return Interval{}, errors.New("sensitivity: need sigma > 0 and samples >= 10")
	}
	nominal, err := ev.Optimize(d, f, b)
	if err != nil {
		return Interval{}, err
	}
	type draw struct {
		speedup  float64
		feasible bool
	}
	draws, err := par.Map(ctx, samples, workers,
		func(_ context.Context, i int) (draw, error) {
			rng := streams.Get().(*rand.Rand)
			rng.Seed(sampleSeed(seed, i))
			dd, bb := d, b
			for _, in := range Inputs {
				if (in == Mu || in == Phi) && d.Kind != core.Het {
					continue
				}
				dd, bb = perturb(dd, bb, in, math.Exp(sigma*rng.NormFloat64()))
			}
			streams.Put(rng)
			p, err := ev.Optimize(dd, f, bb)
			if err != nil {
				return draw{}, nil // infeasible draws are skipped, not fatal
			}
			return draw{speedup: p.Speedup, feasible: true}, nil
		})
	if err != nil {
		return Interval{}, err
	}
	vals := make([]float64, 0, samples)
	for _, dr := range draws {
		if dr.feasible {
			vals = append(vals, dr.speedup)
		}
	}
	if len(vals) < samples/2 {
		return Interval{}, fmt.Errorf("sensitivity: only %d of %d draws feasible", len(vals), samples)
	}
	// Nearest-rank quantiles, exactly stats.Quantile's, from one sort.
	sort.Float64s(vals)
	q := func(p float64) float64 { return vals[int(p*float64(len(vals)-1))] }
	return Interval{
		Nominal: nominal.Speedup,
		P05:     q(0.05),
		Median:  q(0.50),
		P95:     q(0.95),
		Samples: len(vals),
	}, nil
}
