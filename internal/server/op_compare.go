package server

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/calcm/heterosim/internal/itrs"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/scenario"
)

// POST /v1/compare — k scenario x model pairs evaluated server-side in
// one exchange: each pair runs its Section 6.2 scenario against the
// baseline on its model backend (scenario.CompareModelCtx), and the
// response carries the derived quantities an interactive frontend
// would otherwise compute from k /v1/scenario calls — per-node speedup
// deltas and the crossover table ("at which node does the FPGA
// overtake the asymmetric CMP under model X?"). Pairs fan out through
// internal/par; the response assembles in request order, so bytes are
// identical at every worker count. Each pair's Rows are the same
// node-major frames /v1/frontier/stream emits for that (scenario,
// model), byte-for-byte (TestFrontierMatchesCompareRows).

// maxComparePairs bounds one compare: each pair is two full roadmap
// projections, so the cap is about evaluation cost, not memory.
const maxComparePairs = 16

// ComparePair selects one (scenario, model) combination. Scenario 0 is
// the baseline configuration — its deltas are zero by construction,
// but its crossovers still answer the baseline question.
type ComparePair struct {
	Scenario    int             `json:"scenario"` // 0-6
	Model       string          `json:"model,omitempty"`
	ModelParams json.RawMessage `json:"modelParams,omitempty"`
}

// CompareRequest runs k scenario x model pairs for one workload at one
// parallel fraction. The top-level model fields are a convenience
// default for uniform-model compares: they are pushed down into every
// pair that names no backend of its own, then cleared, so the pushed
// and fully-explicit spellings share one cache key.
type CompareRequest struct {
	Workload    string          `json:"workload"`
	F           float64         `json:"f"`
	Pairs       []ComparePair   `json:"pairs"`
	Model       string          `json:"model,omitempty"`
	ModelParams json.RawMessage `json:"modelParams,omitempty"`
	Workers     int             `json:"workers,omitempty"`
}

// CompareDeltaJSON is one design's speedup delta at one node:
// alternative minus baseline, under the pair's scenario. Valid
// requires feasibility in both configurations.
type CompareDeltaJSON struct {
	Label string  `json:"label"`
	Valid bool    `json:"valid"`
	Base  float64 `json:"base,omitempty"`
	Alt   float64 `json:"alt,omitempty"`
	Delta float64 `json:"delta"`
}

// CompareNodeJSON is one roadmap node's delta row.
type CompareNodeJSON struct {
	Node   string             `json:"node"`
	Deltas []CompareDeltaJSON `json:"deltas"`
}

// ComparePairJSON is one pair's result: the alternative set's
// node-major frontier rows (byte-identical to /v1/frontier/stream for
// the same scenario and model), the per-node deltas against the
// baseline, and the crossover table over the alternative set.
type ComparePairJSON struct {
	Scenario   int               `json:"scenario"`
	Name       string            `json:"name"`
	Model      string            `json:"model,omitempty"`
	Rows       []FrontierRowJSON `json:"rows"`
	Deltas     []CompareNodeJSON `json:"deltas"`
	Crossovers []CrossoverJSON   `json:"crossovers"`
}

// CompareResponse is the /v1/compare document.
type CompareResponse struct {
	Workload string            `json:"workload"`
	F        float64           `json:"f"`
	Nodes    []string          `json:"nodes"`
	Pairs    []ComparePairJSON `json:"pairs"`
}

var opCompare = newOp("compare", buildCompare)

func buildCompare(req *CompareRequest, workers int) (string, func(context.Context) (CompareResponse, error), error) {
	w, err := parseWorkload(req.Workload)
	if err != nil {
		return "", nil, err
	}
	req.Workload = string(w)
	if err := checkF(req.F); err != nil {
		return "", nil, err
	}
	if len(req.Pairs) == 0 {
		return "", nil, BadRequest("compare needs at least one (scenario, model) pair")
	}
	if len(req.Pairs) > maxComparePairs {
		return "", nil, BadRequest("compare has %d pairs, limit %d: split the request", len(req.Pairs), maxComparePairs)
	}
	type prepared struct {
		sc    scenario.Scenario
		mk    model.Factory
		model string // canonical backend name
	}
	for i := range req.Pairs {
		if p := &req.Pairs[i]; p.Model == "" && p.ModelParams == nil {
			p.Model, p.ModelParams = req.Model, req.ModelParams
		}
	}
	req.Model, req.ModelParams = "", nil
	pairs := make([]prepared, len(req.Pairs))
	for i := range req.Pairs {
		p := &req.Pairs[i]
		if p.Scenario < 0 || p.Scenario > 6 {
			return "", nil, BadRequest("pair %d: scenario must be 0-6, got %d", i, p.Scenario)
		}
		sc, err := scenario.Get(scenario.ID(p.Scenario))
		if err != nil {
			return "", nil, BadRequest("pair %d: %v", i, err)
		}
		mk, name, err := resolveModelFactory(&p.Model, &p.ModelParams)
		if err != nil {
			return "", nil, BadRequest("pair %d: %v", i, err)
		}
		pairs[i] = prepared{sc: sc, mk: mk, model: name}
	}
	// Each pair resolves its own backend. A mixed-model compare does not
	// claim one backend in the response header; when every pair agrees,
	// that one backend is reported.
	name := pairs[0].model
	for _, p := range pairs[1:] {
		if p.model != name {
			name = ""
			break
		}
	}
	// Duplicate pairs after canonicalization are a request bug: the
	// second copy could only burn two projections to repeat the first.
	seen := make(map[string]int, len(req.Pairs))
	for i, p := range req.Pairs {
		key := fmt.Sprintf("%d\x00%s\x00%s", p.Scenario, p.Model, p.ModelParams)
		if j, dup := seen[key]; dup {
			return name, nil, BadRequest("pair %d duplicates pair %d (scenario %d, model %s)", i, j, p.Scenario, pairs[i].model)
		}
		seen[key] = i
	}
	workers = workersOr(&req.Workers, workers)
	return name, func(ctx context.Context) (CompareResponse, error) {
		out, err := par.Map(ctx, len(pairs), min(workers, len(pairs)), func(ctx context.Context, i int) (ComparePairJSON, error) {
			base, alt, err := scenario.CompareModelCtx(ctx, pairs[i].sc, w, req.F, workers, pairs[i].mk)
			if err != nil {
				return ComparePairJSON{}, err
			}
			pj := ComparePairJSON{
				Scenario:   req.Pairs[i].Scenario,
				Name:       pairs[i].sc.Name,
				Model:      req.Pairs[i].Model,
				Rows:       frontierRows(alt),
				Crossovers: crossoverJSON(scenario.Crossovers(alt)),
			}
			deltas := scenario.Deltas(base, alt)
			if len(deltas) > 0 {
				pj.Deltas = make([]CompareNodeJSON, 0, len(deltas))
			}
			for n, row := range deltas {
				nj := CompareNodeJSON{Node: pj.Rows[n].Node}
				if len(row) > 0 {
					nj.Deltas = make([]CompareDeltaJSON, 0, len(row))
				}
				for _, d := range row {
					nj.Deltas = append(nj.Deltas, CompareDeltaJSON{
						Label: d.Label, Valid: d.Valid, Base: d.Base, Alt: d.Alt, Delta: d.Delta,
					})
				}
				pj.Deltas = append(pj.Deltas, nj)
			}
			return pj, nil
		})
		if err != nil {
			return CompareResponse{}, evalFailure(err, unprocessable)
		}
		resp := CompareResponse{Workload: req.Workload, F: req.F, Pairs: out}
		for _, n := range itrs.Default().Nodes() {
			resp.Nodes = append(resp.Nodes, n.Name)
		}
		return resp, nil
	}, nil
}
