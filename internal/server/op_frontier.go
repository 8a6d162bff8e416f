package server

import (
	"context"
	"encoding/json"

	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/scenario"
)

// POST /v1/frontier/stream — the paper's core artifact as a stream:
// the design frontier (every design in the workload's lineup) emitted
// node-by-node across the ITRS roadmap, under any Section 6.2 scenario
// and model backend. One header line (identity + lineup), one line per
// roadmap node with every design's point at that node, one trailer
// line carrying the crossover summary. The roadmap is five nodes, so
// unlike the sweep the window is the whole projection; the stream
// shape exists because it is the natural wire form of a trajectory —
// an interactive frontend draws the frontier a node at a time — and
// because /v1/compare's per-node rows reuse exactly these frames
// (TestFrontierMatchesCompareRows pins the bytes).

// FrontierRequest selects one trajectory set: a workload at parallel
// fraction f, optionally under a scenario transform (0 = baseline) and
// a model backend.
type FrontierRequest struct {
	Workload    string          `json:"workload"`
	F           float64         `json:"f"`
	Scenario    int             `json:"scenario,omitempty"` // 0-6, 0 = baseline
	Model       string          `json:"model,omitempty"`
	ModelParams json.RawMessage `json:"modelParams,omitempty"`
	Workers     int             `json:"workers,omitempty"`
}

// FrontierPointJSON is one design's sample inside a frontier row. It
// carries the design identity inline (unlike NodePointJSON, whose
// trajectory provides it), because a row is node-major: all designs at
// one node.
type FrontierPointJSON struct {
	Label      string  `json:"label"`
	Kind       string  `json:"kind"`
	Valid      bool    `json:"valid"`
	R          int     `json:"r,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	Limit      string  `json:"limit,omitempty"`
	EnergyNode float64 `json:"energyNode,omitempty"`
}

// FrontierRowJSON is one NDJSON row: the whole design frontier at one
// roadmap node. Best names the fastest valid design, empty when the
// node supports nothing.
type FrontierRowJSON struct {
	Node   string              `json:"node"`
	Points []FrontierPointJSON `json:"points"`
	Best   string              `json:"best,omitempty"`
}

// FrontierStreamHeader is the first NDJSON line: the trajectory set's
// identity. Model names the backend only for non-default requests.
type FrontierStreamHeader struct {
	Workload string   `json:"workload"`
	F        float64  `json:"f"`
	Scenario int      `json:"scenario"`
	Name     string   `json:"name"` // scenario name, "baseline" for 0
	Nodes    []string `json:"nodes"`
	Designs  []string `json:"designs"`
	Model    string   `json:"model,omitempty"`
}

// FrontierStreamTrailer is the last NDJSON line: the row count (a
// completeness check — a stream without it is truncated) plus the
// crossover summary over the emitted set.
type FrontierStreamTrailer struct {
	Nodes      int             `json:"nodes"`
	Crossovers []CrossoverJSON `json:"crossovers"`
}

// CrossoverJSON is one scenario.Crossover on the wire. An absent node
// means the design never overtakes within the roadmap; the pair is
// still listed, so "never" is an answer, not a gap.
type CrossoverJSON struct {
	Design string `json:"design"`
	Over   string `json:"over"`
	Node   string `json:"node,omitempty"`
}

// frontierRows pivots a trajectory set (design-major) into wire rows
// (node-major), computing each node's best valid design by strict
// comparison in lineup order — ties break to the earliest design, at
// every worker count.
func frontierRows(ts []project.Trajectory) []FrontierRowJSON {
	if len(ts) == 0 {
		return nil
	}
	rows := make([]FrontierRowJSON, 0, len(ts[0].Points))
	for n := range ts[0].Points {
		row := FrontierRowJSON{Node: ts[0].Points[n].Node.Name, Points: make([]FrontierPointJSON, 0, len(ts))}
		best := 0.0
		for _, t := range ts {
			p := t.Points[n]
			fp := FrontierPointJSON{Label: t.Design.Label, Kind: t.Design.Kind.String(), Valid: p.Valid}
			if p.Valid {
				fp.R = p.Point.R
				fp.Speedup = p.Point.Speedup
				fp.Limit = p.Point.Limit.String()
				fp.EnergyNode = p.EnergyNode
				if p.Point.Speedup > best {
					best = p.Point.Speedup
					row.Best = t.Design.Label
				}
			}
			row.Points = append(row.Points, fp)
		}
		rows = append(rows, row)
	}
	return rows
}

// crossoverJSON converts the analysis-layer crossovers to wire form.
func crossoverJSON(cs []scenario.Crossover) []CrossoverJSON {
	out := make([]CrossoverJSON, 0, len(cs))
	for _, c := range cs {
		out = append(out, CrossoverJSON{Design: c.Design, Over: c.Over, Node: c.Node})
	}
	return out
}

// streamFrontier is the frontier's streaming op; it owns its route (no
// buffered form — /v1/compare is the buffered trajectory surface).
var streamFrontier = newStreamOp(buildFrontierStream)

func buildFrontierStream(req *FrontierRequest, workers int) (string, streamFunc, error) {
	if req.Scenario < 0 || req.Scenario > 6 {
		return "", nil, BadRequest("scenario must be 0-6, got %d", req.Scenario)
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
	return name, func(ctx context.Context, e *streamEmitter) error {
		ts, err := scenario.RunModelCtx(ctx, sc, w, req.F, workers, mk)
		if err != nil {
			return evalFailure(err, unprocessable)
		}
		rows := frontierRows(ts)
		hdr := FrontierStreamHeader{
			Workload: req.Workload,
			F:        req.F,
			Scenario: req.Scenario,
			Name:     sc.Name,
			Model:    req.Model,
		}
		for _, row := range rows {
			hdr.Nodes = append(hdr.Nodes, row.Node)
		}
		for _, t := range ts {
			hdr.Designs = append(hdr.Designs, t.Design.Label)
		}
		if err := e.EmitJSON(&hdr); err != nil {
			return err
		}
		if err := e.Flush(); err != nil {
			return err
		}
		for i := range rows {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := e.EmitJSON(&rows[i]); err != nil {
				return err
			}
			// One flush per node: the frontier draws itself a node at a
			// time on the far end.
			if err := e.Flush(); err != nil {
				return err
			}
		}
		return e.EmitJSON(&FrontierStreamTrailer{
			Nodes:      len(rows),
			Crossovers: crossoverJSON(scenario.Crossovers(ts)),
		})
	}, nil
}
