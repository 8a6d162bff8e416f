package server

import (
	"context"
	"encoding/json"

	"github.com/calcm/heterosim/internal/ablation"
	"github.com/calcm/heterosim/internal/itrs"
)

// POST /v1/ablation — the three configuration ablations at one node.

// AblationRequest runs the bandwidth-bound, power-bound, and
// sequential-sizing ablations for a workload's design lineup at one
// roadmap node.
type AblationRequest struct {
	Workload    string          `json:"workload"`
	F           float64         `json:"f"`
	Node        string          `json:"node,omitempty"` // default "11nm", the CLI's far-node default
	Model       string          `json:"model,omitempty"`
	ModelParams json.RawMessage `json:"modelParams,omitempty"`
	Workers     int             `json:"workers,omitempty"`
}

// AblationResultJSON compares one design with and without an
// ingredient.
type AblationResultJSON struct {
	Design   string  `json:"design"`
	Baseline float64 `json:"baseline"`
	Ablated  float64 `json:"ablated"`
	Ratio    float64 `json:"ratio"`
}

// AblationStudyJSON is one named ablation across the design lineup.
type AblationStudyJSON struct {
	Study   string               `json:"study"`
	Results []AblationResultJSON `json:"results"`
}

// AblationResponse carries the three studies in fixed order. Model
// names the backend only for non-default requests.
type AblationResponse struct {
	Workload string              `json:"workload"`
	F        float64             `json:"f"`
	Node     string              `json:"node"`
	Studies  []AblationStudyJSON `json:"studies"`
	Model    string              `json:"model,omitempty"`
}

// ablationStudyNames names ablation.StudiesModelCtx's fixed return order.
var ablationStudyNames = [...]string{"bandwidthBound", "powerBound", "sequentialSizing"}

var opAblation = newOp("ablation", buildAblation)

func buildAblation(req *AblationRequest, workers int) (string, func(context.Context) (AblationResponse, error), error) {
	w, err := parseWorkload(req.Workload)
	if err != nil {
		return "", nil, err
	}
	req.Workload = string(w)
	if err := checkF(req.F); err != nil {
		return "", nil, err
	}
	if req.Node == "" {
		req.Node = "11nm"
	}
	nodeIdx, err := itrs.Default().Index(req.Node)
	if err != nil {
		return "", nil, BadRequest("unknown node %q", req.Node)
	}
	mk, name, err := resolveModelFactory(&req.Model, &req.ModelParams)
	if err != nil {
		return name, nil, err
	}
	workers = workersOr(&req.Workers, workers)
	return name, func(ctx context.Context) (AblationResponse, error) {
		studies, err := ablation.StudiesModelCtx(ctx, w, req.F, nodeIdx, workers, mk)
		if err != nil {
			return AblationResponse{}, evalFailure(err, unprocessable)
		}
		resp := AblationResponse{Workload: req.Workload, F: req.F, Node: req.Node, Model: req.Model}
		for i, rs := range studies {
			st := AblationStudyJSON{Study: ablationStudyNames[i]}
			for _, r := range rs {
				st.Results = append(st.Results, AblationResultJSON{
					Design:   r.Design,
					Baseline: r.Baseline,
					Ablated:  r.Ablated,
					Ratio:    r.Ratio,
				})
			}
			resp.Studies = append(resp.Studies, st)
		}
		return resp, nil
	}, nil
}
