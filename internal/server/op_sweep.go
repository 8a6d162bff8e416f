package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strconv"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/sweep"
)

// POST /v1/sweep — an (f x budget-scale) grid of design points.

// maxSweepCells bounds one sweep request: a 100k-cell grid evaluates in
// well under a second, anything larger should be split by the client.
const maxSweepCells = 100_000

// AxisSpec is one sweep dimension: either explicit values or an
// inclusive [lo, hi] range sampled at steps points.
type AxisSpec struct {
	Lo     float64   `json:"lo,omitempty"`
	Hi     float64   `json:"hi,omitempty"`
	Steps  int       `json:"steps,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// values materializes the axis.
func (a AxisSpec) values(name string) ([]float64, error) {
	if len(a.Values) > 0 {
		if a.Lo != 0 || a.Hi != 0 || a.Steps != 0 {
			return nil, badRequest("axis %s: give either values or lo/hi/steps, not both", name)
		}
		return a.Values, nil
	}
	vals, err := sweep.Range(a.Lo, a.Hi, a.Steps)
	if err != nil {
		return nil, badRequest("axis %s: %v", name, err)
	}
	return vals, nil
}

// unitAxis is the default for omitted budget-scale axes.
func unitAxis(a *AxisSpec) AxisSpec {
	if a == nil {
		return AxisSpec{Values: []float64{1}}
	}
	return *a
}

// SweepRequest evaluates one design across an f x budget-scale grid at a
// roadmap node. Scale axes multiply the node's converted budgets, so
// {f: {values: [0.9, 0.99]}, bandwidthScale: {lo: 0.5, hi: 2, steps: 4}}
// explores the bandwidth wall interactively.
type SweepRequest struct {
	Workload       string          `json:"workload"`
	Node           string          `json:"node,omitempty"`
	Design         DesignSpec      `json:"design"`
	Alpha          float64         `json:"alpha,omitempty"`
	Objective      string          `json:"objective,omitempty"`
	F              AxisSpec        `json:"f"`
	AreaScale      *AxisSpec       `json:"areaScale,omitempty"`
	PowerScale     *AxisSpec       `json:"powerScale,omitempty"`
	BandwidthScale *AxisSpec       `json:"bandwidthScale,omitempty"`
	Model          string          `json:"model,omitempty"`
	ModelParams    json.RawMessage `json:"modelParams,omitempty"`
	Workers        int             `json:"workers,omitempty"`
}

// SweepPointJSON is one evaluated grid cell. Infeasible cells are
// reported with Valid=false rather than failing the sweep.
type SweepPointJSON struct {
	F              float64 `json:"f"`
	AreaScale      float64 `json:"areaScale"`
	PowerScale     float64 `json:"powerScale"`
	BandwidthScale float64 `json:"bandwidthScale"`
	Valid          bool    `json:"valid"`
	R              int     `json:"r,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	Limit          string  `json:"limit,omitempty"`
	EnergyNorm     float64 `json:"energyNorm,omitempty"`
}

// SweepResponse carries the full surface in row-major order (axes in
// the listed order, last axis fastest) plus the best feasible cell.
// Model names the backend only for non-default requests.
type SweepResponse struct {
	Workload string           `json:"workload"`
	Node     string           `json:"node"`
	Design   string           `json:"design"`
	Axes     []AxisJSON       `json:"axes"`
	Points   []SweepPointJSON `json:"points"`
	Feasible int              `json:"feasible"`
	Best     *SweepPointJSON  `json:"best,omitempty"`
	Model    string           `json:"model,omitempty"`
}

// AxisJSON names one grid dimension and its values.
type AxisJSON struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// coordCache memoizes the formatted text of one point field's values in
// a most-recently-inserted-first ring. A sweep's coordinates are drawn
// from its (small) axes, and the model outputs repeat row-locally —
// EnergyNorm depends only on (f, r), never on bandwidth, and Speedup
// repeats across cells whose binding budget isn't the swept one — so
// each point tends to repeat values the encoder formatted moments ago.
// The backward scan from the insertion point finds those in a few
// probes, trading them against the much costlier shortest-float
// formatting. Zero is excluded (so a -0 can never alias the "0" text of
// a +0), as is any rendering wider than a slot (impossible for float64,
// but the guard keeps correctness local). The ring overwrites its
// oldest entry when full, which keeps high-cardinality fields cheap:
// they cost a bounded scan, never an unbounded table.
type coordCache struct {
	n      int // entries in use
	next   int // ring insertion position
	vals   [maxCoordCache]float64
	length [maxCoordCache]uint8
	text   [maxCoordCache][28]byte
}

const maxCoordCache = 64

// appendVal appends the json encoding of v, from cache when possible.
func (c *coordCache) appendVal(b []byte, v float64) ([]byte, error) {
	if v != 0 {
		// Repeats are row-local, so they sit near the insertion point;
		// probing half the ring keeps a high-cardinality field's misses
		// (which would scan everything for nothing) at half price. A
		// value evicted or beyond the probe horizon is simply formatted
		// and re-inserted.
		probe := c.n
		if probe > maxCoordCache/2 {
			probe = maxCoordCache / 2
		}
		for k := 1; k <= probe; k++ {
			i := c.next - k
			if i < 0 {
				i += maxCoordCache
			}
			if c.vals[i] == v {
				return append(b, c.text[i][:c.length[i]]...), nil
			}
		}
	}
	start := len(b)
	b, err := engine.AppendFloat(b, v)
	if err != nil {
		return nil, err
	}
	if t := b[start:]; v != 0 && len(t) <= len(c.text[0]) {
		i := c.next
		c.vals[i] = v
		c.length[i] = uint8(len(t))
		copy(c.text[i][:], t)
		c.next = (i + 1) % maxCoordCache
		if c.n < maxCoordCache {
			c.n++
		}
	}
	return b, nil
}

// sweepEnc carries one value cache per float point field for the
// duration of a response encoding: the four grid coordinates, Speedup,
// and EnergyNorm.
type sweepEnc struct {
	coords [6]coordCache
}

// appendPoint appends one cell exactly as encoding/json encodes
// SweepPointJSON, including the omitempty suppression of the zero R,
// Speedup, Limit, and EnergyNorm of infeasible cells.
func (e *sweepEnc) appendPoint(b []byte, p *SweepPointJSON) ([]byte, error) {
	var err error
	b = append(b, `{"f":`...)
	if b, err = e.coords[0].appendVal(b, p.F); err != nil {
		return nil, err
	}
	b = append(b, `,"areaScale":`...)
	if b, err = e.coords[1].appendVal(b, p.AreaScale); err != nil {
		return nil, err
	}
	b = append(b, `,"powerScale":`...)
	if b, err = e.coords[2].appendVal(b, p.PowerScale); err != nil {
		return nil, err
	}
	b = append(b, `,"bandwidthScale":`...)
	if b, err = e.coords[3].appendVal(b, p.BandwidthScale); err != nil {
		return nil, err
	}
	b = append(b, `,"valid":`...)
	b = strconv.AppendBool(b, p.Valid)
	if p.R != 0 {
		b = append(b, `,"r":`...)
		b = strconv.AppendInt(b, int64(p.R), 10)
	}
	if p.Speedup != 0 {
		b = append(b, `,"speedup":`...)
		if b, err = e.coords[4].appendVal(b, p.Speedup); err != nil {
			return nil, err
		}
	}
	if p.Limit != "" {
		b = append(b, `,"limit":`...)
		b = engine.AppendString(b, p.Limit)
	}
	if p.EnergyNorm != 0 {
		b = append(b, `,"energyNorm":`...)
		if b, err = e.coords[5].appendVal(b, p.EnergyNorm); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// AppendJSON implements engine.Appender: a sweep response is one point
// per grid cell, and encoding a few thousand cells through reflection
// costs more than evaluating them, so the surface writes itself. The
// bytes are exactly json.Marshal's (TestSweepResponseAppendJSON fuzzes
// the equivalence); keep both in sync when fields change.
func (r SweepResponse) AppendJSON(b []byte) ([]byte, error) {
	var err error
	var enc sweepEnc
	b = append(b, `{"workload":`...)
	b = engine.AppendString(b, r.Workload)
	b = append(b, `,"node":`...)
	b = engine.AppendString(b, r.Node)
	b = append(b, `,"design":`...)
	b = engine.AppendString(b, r.Design)
	b = append(b, `,"axes":`...)
	if r.Axes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Axes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = engine.AppendString(b, r.Axes[i].Name)
			b = append(b, `,"values":`...)
			if b, err = engine.AppendFloats(b, r.Axes[i].Values); err != nil {
				return nil, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"points":`...)
	if r.Points == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Points {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = enc.appendPoint(b, &r.Points[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"feasible":`...)
	b = strconv.AppendInt(b, int64(r.Feasible), 10)
	if r.Best != nil {
		b = append(b, `,"best":`...)
		if b, err = enc.appendPoint(b, r.Best); err != nil {
			return nil, err
		}
	}
	if r.Model != "" {
		b = append(b, `,"model":`...)
		b = engine.AppendString(b, r.Model)
	}
	return append(b, '}'), nil
}

var opSweep = engine.New("sweep", buildSweep)

// sweepPlan is a validated, canonicalized sweep ready to evaluate: the
// shared prepare step behind both the buffered /v1/sweep response and
// the ?stream=ndjson row emitter, so the two paths can never disagree
// about validation, axis construction, or per-cell evaluation.
type sweepPlan struct {
	req     *SweepRequest
	grid    *sweep.Grid
	axes    []sweep.Axis
	base    bounds.Budgets
	design  core.Design
	workers int
	energy  bool
	opt     func(core.Design, float64, bounds.Budgets) (core.Point, error)
}

// planSweep validates and canonicalizes req (in place, exactly like
// every other op's build step) and assembles the evaluation plan.
// maxCells bounds the grid: the buffered path pays O(cells) response
// memory, the streaming path only O(chunk), so they pass different
// limits.
func planSweep(req *SweepRequest, env engine.Env, maxCells int) (*sweepPlan, error) {
	w, err := parseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	req.Workload = string(w)
	if req.Node == "" {
		req.Node = "40nm"
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
	base, err := nodeBudgets(w, req.Node)
	if err != nil {
		return nil, err
	}
	fVals, err := req.F.values("f")
	if err != nil {
		return nil, err
	}
	for _, f := range fVals {
		if err := engine.CheckF(f); err != nil {
			return nil, err
		}
	}
	axes := []sweep.Axis{{Name: "f", Values: fVals}}
	for _, sc := range []struct {
		name string
		spec AxisSpec
	}{
		{"area", unitAxis(req.AreaScale)},
		{"power", unitAxis(req.PowerScale)},
		{"bandwidth", unitAxis(req.BandwidthScale)},
	} {
		vals, err := sc.spec.values(sc.name + "Scale")
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			if v <= 0 || math.IsNaN(v) {
				return nil, badRequest("axis %sScale: scales must be positive", sc.name)
			}
		}
		axes = append(axes, sweep.Axis{Name: sc.name, Values: vals})
	}
	grid, err := sweep.NewGrid(axes...)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if grid.Size() > maxCells {
		return nil, badRequest("sweep has %d cells, limit %d: split the request", grid.Size(), maxCells)
	}
	workers := workersOr(&req.Workers, env)

	opt := mdl.Optimize
	if req.Objective == "energy" {
		opt = mdl.OptimizeEnergy
	}
	return &sweepPlan{
		req:     req,
		grid:    grid,
		axes:    axes,
		base:    base,
		design:  d,
		workers: workers,
		energy:  req.Objective == "energy",
		opt:     opt,
	}, nil
}

// evalCell evaluates one grid cell from its axis values by position
// (0 f, 1 area, 2 power, 3 bandwidth — the declared axis order).
// Infeasible cells come back Valid=false; only genuine model errors
// propagate.
func (p *sweepPlan) evalCell(v []float64) (SweepPointJSON, error) {
	f, as, ps, bs := v[0], v[1], v[2], v[3]
	cell := SweepPointJSON{F: f, AreaScale: as, PowerScale: ps, BandwidthScale: bs}
	b := bounds.Budgets{Area: p.base.Area * as, Power: p.base.Power * ps, Bandwidth: p.base.Bandwidth * bs}
	pt, err := p.opt(p.design, f, b)
	if err == nil {
		cell.Valid = true
		cell.R = pt.R
		cell.Speedup = pt.Speedup
		cell.Limit = pt.Limit.String()
		cell.EnergyNorm = pt.EnergyNorm
	} else if !errors.Is(err, core.ErrInfeasible) {
		return cell, err
	}
	return cell, nil
}

// axesJSON materializes the response axes.
func (p *sweepPlan) axesJSON() []AxisJSON {
	out := make([]AxisJSON, 0, len(p.axes))
	for _, ax := range p.axes {
		out = append(out, AxisJSON{Name: ax.Name, Values: ax.Values})
	}
	return out
}

// bestReducer folds cells into (feasible count, best cell). Cells must
// be observed in flat row-major order with strict comparisons, so ties
// break to the lowest index at every worker count — the contract both
// the buffered response and the streamed trailer inherit.
type bestReducer struct {
	energy   bool
	feasible int
	has      bool
	best     SweepPointJSON
}

// observe folds one cell, in index order.
func (r *bestReducer) observe(p *SweepPointJSON) {
	if !p.Valid {
		return
	}
	r.feasible++
	better := !r.has
	if !better {
		if r.energy {
			better = p.EnergyNorm < r.best.EnergyNorm
		} else {
			better = p.Speedup > r.best.Speedup
		}
	}
	if better {
		r.has = true
		r.best = *p
	}
}

// bestPtr returns the best cell, nil when nothing was feasible.
func (r *bestReducer) bestPtr() *SweepPointJSON {
	if !r.has {
		return nil
	}
	return &r.best
}

func buildSweep(req *SweepRequest, env engine.Env) (func(context.Context) (SweepResponse, error), error) {
	p, err := planSweep(req, env, maxSweepCells)
	if err != nil {
		return nil, err
	}
	// The evaluation loop runs on Cells: each worker gets the flat
	// row-major index directly plus the axis values by position, so the
	// hot path writes points[flat] with no per-cell Point map or
	// value->index lookups.
	return func(ctx context.Context) (SweepResponse, error) {
		points := make([]SweepPointJSON, p.grid.Size())
		err := p.grid.Cells(ctx, p.workers, func(flat int, v []float64) error {
			cell, err := p.evalCell(v)
			if err != nil {
				return err
			}
			points[flat] = cell
			return nil
		})
		if err != nil {
			return SweepResponse{}, evalFailure(err, badRequest)
		}
		resp := SweepResponse{
			Workload: p.req.Workload,
			Node:     p.req.Node,
			Design:   p.design.Label,
			Model:    p.req.Model,
			Axes:     p.axesJSON(),
			Points:   points,
		}
		// The best cell is reduced serially in index order (strict >), so
		// ties break to the lowest index at every worker count.
		red := bestReducer{energy: p.energy}
		for i := range points {
			red.observe(&points[i])
		}
		resp.Feasible = red.feasible
		resp.Best = red.bestPtr()
		return resp, nil
	}, nil
}
