package server

import (
	"context"
	"encoding/json"
	"errors"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/engine"
)

// POST /v1/optimize — one design point.

// OptimizeRequest asks for the optimal sequential-core size of one
// design under one budget triple. Budgets come either from a roadmap
// node name (converted for the workload, as the projections do) or as an
// explicit BCE-relative triple.
type OptimizeRequest struct {
	Workload    string          `json:"workload"`
	F           float64         `json:"f"`
	Node        string          `json:"node,omitempty"`
	Budgets     *BudgetsSpec    `json:"budgets,omitempty"`
	Alpha       float64         `json:"alpha,omitempty"`
	Objective   string          `json:"objective,omitempty"`
	Design      DesignSpec      `json:"design"`
	Model       string          `json:"model,omitempty"`
	ModelParams json.RawMessage `json:"modelParams,omitempty"`
}

// OptimizeResponse is the evaluated point plus the budgets it ran under.
// Model names the backend only when the request selected a non-default
// one, keeping defaulted responses byte-identical.
type OptimizeResponse struct {
	Workload string      `json:"workload"`
	Node     string      `json:"node,omitempty"`
	Budgets  BudgetsSpec `json:"budgets"`
	Point    PointJSON   `json:"point"`
	Model    string      `json:"model,omitempty"`
}

var opOptimize = engine.New("optimize", buildOptimize)

func buildOptimize(req *OptimizeRequest, env engine.Env) (func(context.Context) (OptimizeResponse, error), error) {
	w, err := parseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	req.Workload = string(w) // canonical spelling for the cache key
	if err := engine.CheckF(req.F); err != nil {
		return nil, err
	}
	obj, err := engine.ParseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	req.Objective = obj
	d, err := req.Design.resolve(w)
	if err != nil {
		return nil, err
	}
	mdl, err := resolveModel(&req.Model, &req.ModelParams, req.Alpha, env)
	if err != nil {
		return nil, err
	}
	var b bounds.Budgets
	switch {
	case req.Budgets != nil:
		if req.Node != "" {
			return nil, badRequest("give either node or budgets, not both")
		}
		if req.Budgets.Area <= 0 || req.Budgets.Power <= 0 || req.Budgets.Bandwidth <= 0 {
			return nil, badRequest("budgets must be positive")
		}
		b = bounds.Budgets{Area: req.Budgets.Area, Power: req.Budgets.Power, Bandwidth: req.Budgets.Bandwidth}
	default:
		if req.Node == "" {
			req.Node = "40nm"
		}
		b, err = nodeBudgets(w, req.Node)
		if err != nil {
			return nil, err
		}
	}
	return func(context.Context) (OptimizeResponse, error) {
		opt := mdl.Optimize
		if req.Objective == "energy" {
			opt = mdl.OptimizeEnergy
		}
		pt, err := opt(d, req.F, b)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				return OptimizeResponse{}, unprocessable("%v", err)
			}
			return OptimizeResponse{}, badRequest("%v", err)
		}
		return OptimizeResponse{
			Workload: req.Workload,
			Node:     req.Node,
			Budgets:  BudgetsSpec{Area: b.Area, Power: b.Power, Bandwidth: b.Bandwidth},
			Point:    pointJSON(pt),
			Model:    req.Model,
		}, nil
	}, nil
}
