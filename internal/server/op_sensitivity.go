package server

import (
	"context"
	"encoding/json"

	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/sensitivity"
)

// POST /v1/sensitivity — input elasticities and a Monte Carlo speedup
// interval for one design point.

// maxMCSamples bounds one Monte Carlo request: 100k draws evaluate in
// well under a second; anything larger should be split by the client.
const maxMCSamples = 100_000

// SensitivityRequest profiles how a design point responds to input
// error: the local elasticity of speedup with respect to each model
// input (central difference with relative step), plus a speedup
// interval under log-normal perturbation of every input at once.
type SensitivityRequest struct {
	Workload    string          `json:"workload"`
	F           float64         `json:"f"`
	Node        string          `json:"node,omitempty"`
	Design      DesignSpec      `json:"design"`
	Alpha       float64         `json:"alpha,omitempty"`
	Step        float64         `json:"step,omitempty"`    // central-difference step, default 0.01
	Sigma       float64         `json:"sigma,omitempty"`   // log-normal spread, default 0.2
	Samples     int             `json:"samples,omitempty"` // Monte Carlo draws, default 1000
	Seed        int64           `json:"seed,omitempty"`    // RNG seed, default 1
	Model       string          `json:"model,omitempty"`
	ModelParams json.RawMessage `json:"modelParams,omitempty"`
	Workers     int             `json:"workers,omitempty"`
}

// IntervalJSON is a Monte Carlo speedup range on the wire. Samples is
// the number of feasible draws the quantiles were computed from.
type IntervalJSON struct {
	Nominal float64 `json:"nominal"`
	P05     float64 `json:"p05"`
	Median  float64 `json:"median"`
	P95     float64 `json:"p95"`
	Samples int     `json:"samples"`
}

// SensitivityResponse reports the elasticity profile (keyed by input
// name; mu/phi appear only for heterogeneous designs) and the interval.
type SensitivityResponse struct {
	Workload     string             `json:"workload"`
	Node         string             `json:"node"`
	Design       string             `json:"design"`
	F            float64            `json:"f"`
	Step         float64            `json:"step"`
	Sigma        float64            `json:"sigma"`
	Elasticities map[string]float64 `json:"elasticities"`
	MonteCarlo   IntervalJSON       `json:"monteCarlo"`
	Model        string             `json:"model,omitempty"`
}

var opSensitivity = engine.New("sensitivity", buildSensitivity)

func buildSensitivity(req *SensitivityRequest, env engine.Env) (func(context.Context) (SensitivityResponse, error), error) {
	w, err := parseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	req.Workload = string(w)
	if err := engine.CheckF(req.F); err != nil {
		return nil, err
	}
	if req.Node == "" {
		req.Node = "40nm"
	}
	d, err := req.Design.resolve(w)
	if err != nil {
		return nil, err
	}
	mdl, err := resolveModel(&req.Model, &req.ModelParams, req.Alpha, env)
	if err != nil {
		return nil, err
	}
	// Defaults are materialized into the request before keying so every
	// spelling of "the defaults" shares one cache entry. The comparisons
	// are written accept-side so NaN fails them.
	if req.Step == 0 {
		req.Step = 0.01
	}
	if !(req.Step > 0 && req.Step < 0.5) {
		return nil, badRequest("step must be in (0, 0.5), got %v", req.Step)
	}
	if req.Sigma == 0 {
		req.Sigma = 0.2
	}
	if !(req.Sigma > 0 && req.Sigma <= 2) {
		return nil, badRequest("sigma must be in (0, 2], got %v", req.Sigma)
	}
	if req.Samples == 0 {
		req.Samples = 1000
	}
	if req.Samples < 10 || req.Samples > maxMCSamples {
		return nil, badRequest("samples must be in [10, %d], got %d", maxMCSamples, req.Samples)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	b, err := nodeBudgets(w, req.Node)
	if err != nil {
		return nil, err
	}
	workers := workersOr(&req.Workers, env)
	return func(ctx context.Context) (SensitivityResponse, error) {
		prof, err := sensitivity.ProfileCtx(ctx, mdl, d, req.F, b, req.Step, workers)
		if err != nil {
			return SensitivityResponse{}, evalFailure(err, unprocessable)
		}
		iv, err := sensitivity.MonteCarloCtx(ctx, mdl, d, req.F, b, req.Sigma, req.Samples, req.Seed, workers)
		if err != nil {
			return SensitivityResponse{}, evalFailure(err, unprocessable)
		}
		el := make(map[string]float64, len(prof))
		for in, e := range prof {
			el[in.String()] = e
		}
		return SensitivityResponse{
			Workload:     req.Workload,
			Node:         req.Node,
			Design:       d.Label,
			F:            req.F,
			Step:         req.Step,
			Sigma:        req.Sigma,
			Elasticities: el,
			MonteCarlo: IntervalJSON{
				Nominal: iv.Nominal,
				P05:     iv.P05,
				Median:  iv.Median,
				P95:     iv.P95,
				Samples: iv.Samples,
			},
			Model: req.Model,
		}, nil
	}, nil
}
