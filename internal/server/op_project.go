package server

import (
	"context"
	"encoding/json"

	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/scenario"
)

// POST /v1/project — ITRS trajectory projection.

// ProjectRequest mirrors the CLI `project` subcommand: a workload and
// parallel fraction under a scenario (0 = baseline), with optional
// physical-budget overrides.
type ProjectRequest struct {
	Workload    string          `json:"workload"`
	F           float64         `json:"f"`
	Scenario    int             `json:"scenario,omitempty"`
	Power       float64         `json:"power,omitempty"`     // watts; overrides the scenario default
	Bandwidth   float64         `json:"bandwidth,omitempty"` // GB/s at the first node
	AreaScale   float64         `json:"areaScale,omitempty"`
	Objective   string          `json:"objective,omitempty"`
	Model       string          `json:"model,omitempty"`
	ModelParams json.RawMessage `json:"modelParams,omitempty"`
	Workers     int             `json:"workers,omitempty"`
}

// ProjectResponse is the full design lineup's trajectories. Model names
// the backend only for non-default requests.
type ProjectResponse struct {
	Workload     string           `json:"workload"`
	F            float64          `json:"f"`
	Scenario     int              `json:"scenario"`
	ScenarioName string           `json:"scenarioName"`
	Objective    string           `json:"objective"`
	Nodes        []string         `json:"nodes"`
	Trajectories []TrajectoryJSON `json:"trajectories"`
	Model        string           `json:"model,omitempty"`
}

// projectConfig resolves a ProjectRequest into the projection
// configuration and the model backend it runs on.
func projectConfig(req *ProjectRequest, workers int) (project.Config, scenario.Scenario, string, error) {
	w, err := parseWorkload(req.Workload)
	if err != nil {
		return project.Config{}, scenario.Scenario{}, "", err
	}
	req.Workload = string(w)
	if err := checkF(req.F); err != nil {
		return project.Config{}, scenario.Scenario{}, "", err
	}
	obj, err := parseObjective(req.Objective)
	if err != nil {
		return project.Config{}, scenario.Scenario{}, "", err
	}
	req.Objective = obj
	sc, err := scenario.Get(scenario.ID(req.Scenario))
	if err != nil {
		return project.Config{}, scenario.Scenario{}, "", BadRequest("%v", err)
	}
	if req.Power < 0 || req.Bandwidth < 0 || req.AreaScale < 0 {
		return project.Config{}, scenario.Scenario{}, "", BadRequest("overrides must be positive (or omitted)")
	}
	cfg := sc.Apply(project.DefaultConfig(w))
	if req.Power > 0 {
		cfg.PowerBudgetW = req.Power
	}
	if req.Bandwidth > 0 {
		cfg.BaseBandwidthGBs = req.Bandwidth
	}
	if req.AreaScale > 0 {
		cfg.AreaScale = req.AreaScale
	}
	mk, name, err := resolveModelFactory(&req.Model, &req.ModelParams)
	if err != nil {
		return project.Config{}, scenario.Scenario{}, name, err
	}
	cfg.Model = mk
	cfg.Workers = workersOr(&req.Workers, workers)
	return cfg, sc, name, nil
}

var opProject = newOp("project", buildProject)

func buildProject(req *ProjectRequest, workers int) (string, func(context.Context) (ProjectResponse, error), error) {
	cfg, sc, name, err := projectConfig(req, workers)
	if err != nil {
		return name, nil, err
	}
	return name, func(ctx context.Context) (ProjectResponse, error) {
		proj := project.ProjectCtx
		if req.Objective == "energy" {
			proj = project.ProjectEnergyCtx
		}
		ts, err := proj(ctx, cfg, req.F)
		if err != nil {
			return ProjectResponse{}, evalFailure(err, unprocessable)
		}
		resp := ProjectResponse{
			Workload:     req.Workload,
			F:            req.F,
			Scenario:     req.Scenario,
			ScenarioName: sc.Name,
			Objective:    req.Objective,
			Trajectories: trajectoryJSON(ts),
			Model:        req.Model,
		}
		for _, n := range cfg.Roadmap.Nodes() {
			resp.Nodes = append(resp.Nodes, n.Name)
		}
		return resp, nil
	}, nil
}
