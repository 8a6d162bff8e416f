package server

import (
	"context"
	"encoding/json"

	"github.com/calcm/heterosim/internal/itrs"
	"github.com/calcm/heterosim/internal/scenario"
)

// POST /v1/scenario — a Section 6.2 study: baseline vs alternative.

// ScenarioRequest runs one of the six alternative-assumption studies
// side by side with the baseline.
type ScenarioRequest struct {
	Scenario    int             `json:"scenario"` // 1-6
	Workload    string          `json:"workload"`
	F           float64         `json:"f"`
	Model       string          `json:"model,omitempty"`
	ModelParams json.RawMessage `json:"modelParams,omitempty"`
	Workers     int             `json:"workers,omitempty"`
}

// ScenarioResponse pairs the baseline and alternative trajectory sets
// with the scenario's metadata. Model names the backend only for
// non-default requests; both trajectory sets run on the same backend.
type ScenarioResponse struct {
	Scenario    int              `json:"scenario"`
	Name        string           `json:"name"`
	Rationale   string           `json:"rationale"`
	Expectation string           `json:"expectation"`
	Workload    string           `json:"workload"`
	F           float64          `json:"f"`
	Nodes       []string         `json:"nodes"`
	Baseline    []TrajectoryJSON `json:"baseline"`
	Alternative []TrajectoryJSON `json:"alternative"`
	Model       string           `json:"model,omitempty"`
}

var opScenario = newOp("scenario", buildScenario)

func buildScenario(req *ScenarioRequest, workers int) (string, func(context.Context) (ScenarioResponse, error), error) {
	if req.Scenario < 1 || req.Scenario > 6 {
		return "", nil, BadRequest("scenario must be 1-6, got %d", req.Scenario)
	}
	w, err := parseWorkload(req.Workload)
	if err != nil {
		return "", nil, err
	}
	req.Workload = string(w)
	if err := checkF(req.F); err != nil {
		return "", nil, err
	}
	sc, err := scenario.Get(scenario.ID(req.Scenario))
	if err != nil {
		return "", nil, BadRequest("%v", err)
	}
	mk, name, err := resolveModelFactory(&req.Model, &req.ModelParams)
	if err != nil {
		return name, nil, err
	}
	workers = workersOr(&req.Workers, workers)
	return name, func(ctx context.Context) (ScenarioResponse, error) {
		base, alt, err := scenario.CompareModelCtx(ctx, sc, w, req.F, workers, mk)
		if err != nil {
			return ScenarioResponse{}, evalFailure(err, unprocessable)
		}
		resp := ScenarioResponse{
			Scenario:    req.Scenario,
			Name:        sc.Name,
			Rationale:   sc.Rationale,
			Expectation: sc.Expectation,
			Workload:    req.Workload,
			F:           req.F,
			Baseline:    trajectoryJSON(base),
			Alternative: trajectoryJSON(alt),
			Model:       req.Model,
		}
		for _, n := range itrs.Default().Nodes() {
			resp.Nodes = append(resp.Nodes, n.Name)
		}
		return resp, nil
	}, nil
}
