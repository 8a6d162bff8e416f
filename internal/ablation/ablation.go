// Package ablation quantifies what each ingredient of the paper's model
// contributes by removing it and re-running the projection — the
// reproduction's answer to "which constraint actually drives each
// conclusion?". Three ingredients are ablatable through configuration
// (the bandwidth bound, the power bound, and the sequential-core sweep)
// and one through the model family (the asymmetric-offload assumption
// versus Hill & Marty's original asymmetric machine).
package ablation

import (
	"context"
	"errors"
	"fmt"

	"github.com/calcm/heterosim/internal/amdahl"
	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/pollack"
	"github.com/calcm/heterosim/internal/project"
)

// Result compares one design with and without an ingredient.
type Result struct {
	Design   string
	Baseline float64 // speedup with the full model
	Ablated  float64 // speedup with the ingredient removed
	Ratio    float64 // Ablated / Baseline (>= 1: the ingredient binds)
}

// effectivelyInfinite stands in for "no budget" without upsetting the
// validation paths that require finite positive values.
const effectivelyInfinite = 1e12

// run projects baseline and ablated configs concurrently and pairs the
// results at one node index. workers bounds each projection's inner pool
// (<= 0 means GOMAXPROCS); results are identical at every worker count.
// Cancellation or an expired deadline on ctx stops both projections
// early and surfaces ctx.Err().
func run(ctx context.Context, base, ablated project.Config, f float64, nodeIdx, workers int, mk model.Factory) ([]Result, error) {
	base.Workers, ablated.Workers = workers, workers
	base.Model, ablated.Model = mk, mk
	configs := []project.Config{base, ablated}
	ts, err := par.Map(ctx, len(configs), workers,
		func(ctx context.Context, i int) ([]project.Trajectory, error) {
			return project.ProjectCtx(ctx, configs[i], f)
		})
	if err != nil {
		return nil, err
	}
	bs, as := ts[0], ts[1]
	if len(bs) != len(as) {
		return nil, errors.New("ablation: design lineups diverged")
	}
	out := make([]Result, 0, len(bs))
	for i := range bs {
		if nodeIdx < 0 || nodeIdx >= len(bs[i].Points) {
			return nil, fmt.Errorf("ablation: node index %d out of range", nodeIdx)
		}
		bp, ap := bs[i].Points[nodeIdx], as[i].Points[nodeIdx]
		if !bp.Valid || !ap.Valid {
			continue
		}
		r := Result{
			Design:   bs[i].Design.Label,
			Baseline: bp.Point.Speedup,
			Ablated:  ap.Point.Speedup,
		}
		r.Ratio = r.Ablated / r.Baseline
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, errors.New("ablation: no feasible design points")
	}
	return out, nil
}

// BandwidthBound removes the off-chip bandwidth constraint (B -> inf) —
// isolating the paper's "bandwidth wall" from everything else. Runs on a
// GOMAXPROCS pool.
func BandwidthBound(w paper.WorkloadID, f float64, nodeIdx int) ([]Result, error) {
	return bandwidthBoundCtx(context.Background(), w, f, nodeIdx, 0, nil)
}

func bandwidthBoundCtx(ctx context.Context, w paper.WorkloadID, f float64, nodeIdx, workers int, mk model.Factory) ([]Result, error) {
	base := project.DefaultConfig(w)
	ablated := base
	ablated.BaseBandwidthGBs = effectivelyInfinite
	return run(ctx, base, ablated, f, nodeIdx, workers, mk)
}

// PowerBound removes the power constraint (P -> inf) — reducing the
// model to area+bandwidth, close to pre-dark-silicon assumptions. Runs on
// a GOMAXPROCS pool.
func PowerBound(w paper.WorkloadID, f float64, nodeIdx int) ([]Result, error) {
	return powerBoundCtx(context.Background(), w, f, nodeIdx, 0, nil)
}

func powerBoundCtx(ctx context.Context, w paper.WorkloadID, f float64, nodeIdx, workers int, mk model.Factory) ([]Result, error) {
	base := project.DefaultConfig(w)
	ablated := base
	ablated.PowerBudgetW = effectivelyInfinite
	return run(ctx, base, ablated, f, nodeIdx, workers, mk)
}

// SequentialSizing pins the sequential core at r = 1 instead of sweeping
// to 16 — quantifying Hill & Marty's "sequential performance still
// matters" within this model. Here the *baseline* has the ingredient, so
// Ratio <= 1 and (1 - Ratio) is the value of core sizing. Runs on a
// GOMAXPROCS pool.
func SequentialSizing(w paper.WorkloadID, f float64, nodeIdx int) ([]Result, error) {
	return sequentialSizingCtx(context.Background(), w, f, nodeIdx, 0, nil)
}

func sequentialSizingCtx(ctx context.Context, w paper.WorkloadID, f float64, nodeIdx, workers int, mk model.Factory) ([]Result, error) {
	base := project.DefaultConfig(w)
	ablated := base
	ablated.MaxR = 1
	return run(ctx, base, ablated, f, nodeIdx, workers, mk)
}

// Studies runs the three configuration ablations for a workload
// concurrently — the CLI `ablate` fan-out — returning them in fixed
// order: bandwidth bound, power bound, sequential sizing.
func Studies(w paper.WorkloadID, f float64, nodeIdx, workers int) ([][]Result, error) {
	return StudiesModelCtx(context.Background(), w, f, nodeIdx, workers, nil)
}

// StudiesModelCtx is Studies bounded by a context and under a model
// backend (nil = the default, chung). Cancellation or an expired
// deadline stops every projection early and surfaces ctx.Err(), which
// is how the serving layer turns a request deadline into a 504. The
// sequential-sizing study pins MaxR = 1 through the project.Config, so
// the factory sees the ablated sweep bound.
func StudiesModelCtx(ctx context.Context, w paper.WorkloadID, f float64, nodeIdx, workers int, mk model.Factory) ([][]Result, error) {
	studies := []func(context.Context, paper.WorkloadID, float64, int, int, model.Factory) ([]Result, error){
		bandwidthBoundCtx,
		powerBoundCtx,
		sequentialSizingCtx,
	}
	return par.Map(ctx, len(studies), workers,
		func(ctx context.Context, i int) ([]Result, error) {
			return studies[i](ctx, w, f, nodeIdx, workers, mk)
		})
}

// OffloadAssumption compares the paper's asymmetric-offload CMP against
// Hill & Marty's original asymmetric machine (fast core helps during
// parallel phases and keeps burning power) at fixed budgets. The original
// machine gets the fast core's parallel contribution but must fit
// perf_seq(r)'s power alongside the BCEs: n <= (P - r^(alpha/2))/1 + r.
// Returns (offload speedup, original speedup) maximized over r.
func OffloadAssumption(f float64, b bounds.Budgets, maxR int) (offload, original float64, err error) {
	if maxR < 1 {
		return 0, 0, errors.New("ablation: maxR must be >= 1")
	}
	law := pollack.Default()
	for r := 1; r <= maxR; r++ {
		fr := float64(r)
		if err := bounds.SerialFeasible(law, b, fr); err != nil {
			break
		}
		// Offload: Table 1 bounds.
		bd, err := bounds.AsymmetricOffload(law, b, fr)
		if err == nil && bd.N > fr {
			if s, err := amdahl.SpeedupAsymmetricOffload(f, bd.N, fr); err == nil && s > offload {
				offload = s
			}
		}
		// Original asymmetric: the fast core stays on in parallel phases,
		// consuming r^(alpha/2); the BCEs get what is left.
		pw, err := law.Power(fr)
		if err != nil {
			return 0, 0, err
		}
		nPow := (b.Power - pw) + fr
		// The fast core consumes sqrt(r) of bandwidth, BCEs 1 each:
		// sqrt(r) + (n - r) <= B  =>  n <= B - sqrt(r) + r.
		perf, err := law.Perf(fr)
		if err != nil {
			return 0, 0, err
		}
		nBW := b.Bandwidth - perf + fr
		n := b.Area
		if nPow < n {
			n = nPow
		}
		if nBW < n {
			n = nBW
		}
		if n > fr {
			if s, err := amdahl.SpeedupAsymmetric(f, n, fr); err == nil && s > original {
				original = s
			}
		}
	}
	if offload == 0 || original == 0 {
		return 0, 0, errors.New("ablation: no feasible asymmetric design")
	}
	return offload, original, nil
}

// Find returns the result for a design label.
func Find(rs []Result, label string) (Result, error) {
	for _, r := range rs {
		if r.Design == label {
			return r, nil
		}
	}
	return Result{}, fmt.Errorf("ablation: no result for %q", label)
}
