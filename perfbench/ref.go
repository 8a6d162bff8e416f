package main

import (
	"context"
	"fmt"
	"math"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/scenario"
	"github.com/calcm/heterosim/internal/sensitivity"
	"github.com/calcm/heterosim/internal/server"
	"github.com/calcm/heterosim/internal/sweep"
	"github.com/calcm/heterosim/internal/ucore"
)

// The library reference: a generated request evaluated straight
// through the public model-side functions, with no serving layer in
// between. The cold-mix sample is checked against it field by field,
// and the traced run times it to split engine.evaluate_us into model
// work and op-wrapper overhead.

var refWorkloads = map[string]paper.WorkloadID{"MMM": paper.MMM, "BS": paper.BS, "FFT-1024": paper.FFT1024}

var refDevices = map[string]paper.DeviceID{
	"GTX285": paper.GTX285, "GTX480": paper.GTX480, "R5870": paper.R5870,
	"LX760": paper.LX760, "ASIC": paper.ASIC,
}

// refDesign resolves a generated design spec the way the paper defines
// it: the CMP baselines, or a U-core with the device's Table 5 values.
func refDesign(ds server.DesignSpec, w paper.WorkloadID) (core.Design, error) {
	switch ds.Kind {
	case "sym":
		return core.Design{Kind: core.SymCMP, Label: "(0) SymCMP"}, nil
	case "asym":
		return core.Design{Kind: core.AsymCMP, Label: "(1) AsymCMP"}, nil
	}
	dev := refDevices[ds.Device]
	p, ok := ucore.PublishedParams(dev, w)
	if !ok {
		return core.Design{}, fmt.Errorf("no published parameters for %s on %s", dev, w)
	}
	return core.Design{Kind: core.Het, Label: string(dev), UCore: bounds.UCore{Mu: p.Mu, Phi: p.Phi}}, nil
}

// refOptimizer is the backend a request names: the Chung evaluator for
// the default, a registry model otherwise.
func refOptimizer(name string) (sensitivity.Optimizer, error) {
	if name == "" {
		return core.NewEvaluator(), nil
	}
	m, _, err := model.New(name, 0, core.NewEvaluator().MaxR, nil)
	return m, err
}

// refFactory is refOptimizer for the projection functions, which build
// their backend late (nil means the Chung path).
func refFactory(name string) model.Factory {
	if name == "" {
		return nil
	}
	return model.NewFactory(name, nil)
}

// pointInput is the shared resolution of the point ops.
func pointInput(workload string, ds server.DesignSpec, node, modelName string) (core.Design, bounds.Budgets, sensitivity.Optimizer, error) {
	w := refWorkloads[workload]
	d, err := refDesign(ds, w)
	if err != nil {
		return core.Design{}, bounds.Budgets{}, nil, err
	}
	b, err := project.DefaultBudgets(w, node)
	if err != nil {
		return core.Design{}, bounds.Budgets{}, nil, err
	}
	opt, err := refOptimizer(modelName)
	return d, b, opt, err
}

// mismatch collects the first differing field of a check.
type mismatch struct{ err error }

func (m *mismatch) f(field string, got, want float64) {
	if m.err == nil && got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		m.err = fmt.Errorf("%s = %v, library gives %v", field, got, want)
	}
}

func (m *mismatch) s(field, got, want string) {
	if m.err == nil && got != want {
		m.err = fmt.Errorf("%s = %q, library gives %q", field, got, want)
	}
}

func (m *mismatch) n(field string, got, want int) {
	if m.err == nil && got != want {
		m.err = fmt.Errorf("%s = %d, library gives %d", field, got, want)
	}
}

func (m *mismatch) b(field string, got, want bool) {
	if m.err == nil && got != want {
		m.err = fmt.Errorf("%s = %v, library gives %v", field, got, want)
	}
}

// refOptimize is the library's answer to one optimize.
func refOptimize(req server.OptimizeRequest) (core.Point, bounds.Budgets, error) {
	d, b, opt, err := pointInput(req.Workload, req.Design, req.Node, req.Model)
	if err != nil {
		return core.Point{}, b, err
	}
	pt, err := opt.Optimize(d, req.F, b)
	return pt, b, err
}

func checkOptimize(req server.OptimizeRequest, resp *server.OptimizeResponse) error {
	pt, b, err := refOptimize(req)
	if err != nil {
		return err
	}
	var m mismatch
	m.f("budgets.area", resp.Budgets.Area, b.Area)
	m.f("budgets.power", resp.Budgets.Power, b.Power)
	m.f("budgets.bandwidth", resp.Budgets.Bandwidth, b.Bandwidth)
	m.s("point.label", resp.Point.Label, pt.Design.Label)
	m.s("point.kind", resp.Point.Kind, pt.Design.Kind.String())
	m.f("point.f", resp.Point.F, pt.F)
	m.n("point.r", resp.Point.R, pt.R)
	m.f("point.n", resp.Point.N, pt.N)
	m.f("point.speedup", resp.Point.Speedup, pt.Speedup)
	m.s("point.limit", resp.Point.Limit, pt.Limit.String())
	m.f("point.energyNorm", resp.Point.EnergyNorm, pt.EnergyNorm)
	m.s("model", resp.Model, req.Model)
	return m.err
}

func checkSweep(req server.SweepRequest, resp *server.SweepResponse) error {
	d, base, opt, err := pointInput(req.Workload, req.Design, req.Node, req.Model)
	if err != nil {
		return err
	}
	fs, err := sweep.Range(req.F.Lo, req.F.Hi, req.F.Steps)
	if err != nil {
		return err
	}
	bs, err := sweep.Range(req.BandwidthScale.Lo, req.BandwidthScale.Hi, req.BandwidthScale.Steps)
	if err != nil {
		return err
	}
	var m mismatch
	m.n("points", len(resp.Points), len(fs)*len(bs))
	if m.err != nil {
		return m.err
	}
	feasible, best := 0, -1
	for i, f := range fs {
		for j, s := range bs {
			got := resp.Points[i*len(bs)+j]
			field := fmt.Sprintf("points[%d]", i*len(bs)+j)
			pt, err := opt.Optimize(d, f, bounds.Budgets{Area: base.Area, Power: base.Power, Bandwidth: base.Bandwidth * s})
			m.f(field+".f", got.F, f)
			m.f(field+".bandwidthScale", got.BandwidthScale, s)
			m.b(field+".valid", got.Valid, err == nil)
			if err != nil || !got.Valid {
				continue
			}
			m.n(field+".r", got.R, pt.R)
			m.f(field+".speedup", got.Speedup, pt.Speedup)
			m.s(field+".limit", got.Limit, pt.Limit.String())
			m.f(field+".energyNorm", got.EnergyNorm, pt.EnergyNorm)
			feasible++
			if best < 0 || got.Speedup > resp.Points[best].Speedup {
				best = i*len(bs) + j
			}
		}
	}
	m.n("feasible", resp.Feasible, feasible)
	if best >= 0 {
		m.b("best present", resp.Best != nil, true)
		if resp.Best != nil {
			m.f("best.speedup", resp.Best.Speedup, resp.Points[best].Speedup)
		}
	}
	return m.err
}

// refProject is the project op's library call.
func refProject(ctx context.Context, req server.ProjectRequest, workers int) ([]project.Trajectory, error) {
	sc, err := scenario.Get(scenario.ID(req.Scenario))
	if err != nil {
		return nil, err
	}
	cfg := sc.Apply(project.DefaultConfig(refWorkloads[req.Workload]))
	cfg.Model = refFactory(req.Model)
	cfg.Workers = workers
	return project.ProjectCtx(ctx, cfg, req.F)
}

func checkTrajectories(m *mismatch, field string, got []server.TrajectoryJSON, want []project.Trajectory) {
	m.n(field+" designs", len(got), len(want))
	if m.err != nil {
		return
	}
	for i, t := range want {
		g := got[i]
		m.s(fmt.Sprintf("%s[%d].label", field, i), g.Label, t.Design.Label)
		m.n(fmt.Sprintf("%s[%d] nodes", field, i), len(g.Points), len(t.Points))
		if m.err != nil {
			return
		}
		for j, p := range t.Points {
			gp := g.Points[j]
			pf := fmt.Sprintf("%s[%d].points[%d]", field, i, j)
			m.s(pf+".node", gp.Node, p.Node.Name)
			m.b(pf+".valid", gp.Valid, p.Valid)
			if !p.Valid {
				continue
			}
			m.n(pf+".r", gp.R, p.Point.R)
			m.f(pf+".speedup", gp.Speedup, p.Point.Speedup)
			m.s(pf+".limit", gp.Limit, p.Point.Limit.String())
			m.f(pf+".energyNode", gp.EnergyNode, p.EnergyNode)
		}
	}
}

func checkProject(ctx context.Context, req server.ProjectRequest, resp *server.ProjectResponse) error {
	ts, err := refProject(ctx, req, 1)
	if err != nil {
		return err
	}
	var m mismatch
	m.s("workload", resp.Workload, req.Workload)
	m.f("f", resp.F, req.F)
	m.n("scenario", resp.Scenario, req.Scenario)
	checkTrajectories(&m, "trajectories", resp.Trajectories, ts)
	return m.err
}

// refMonteCarlo is the sensitivity op's Monte Carlo library call, with
// the op's default sigma.
func refMonteCarlo(ctx context.Context, req server.SensitivityRequest, workers int) (sensitivity.Interval, error) {
	d, b, opt, err := pointInput(req.Workload, req.Design, req.Node, req.Model)
	if err != nil {
		return sensitivity.Interval{}, err
	}
	return sensitivity.MonteCarloCtx(ctx, opt, d, req.F, b, 0.2, req.Samples, req.Seed, workers)
}

func checkSensitivity(ctx context.Context, req server.SensitivityRequest, resp *server.SensitivityResponse) error {
	d, b, opt, err := pointInput(req.Workload, req.Design, req.Node, req.Model)
	if err != nil {
		return err
	}
	prof, err := sensitivity.ProfileCtx(ctx, opt, d, req.F, b, 0.01, 1)
	if err != nil {
		return err
	}
	iv, err := refMonteCarlo(ctx, req, 1)
	if err != nil {
		return err
	}
	var m mismatch
	m.s("design", resp.Design, d.Label)
	m.n("elasticities", len(resp.Elasticities), len(prof))
	for in, e := range prof {
		m.f("elasticities."+in.String(), resp.Elasticities[in.String()], e)
	}
	m.f("monteCarlo.nominal", resp.MonteCarlo.Nominal, iv.Nominal)
	m.f("monteCarlo.p05", resp.MonteCarlo.P05, iv.P05)
	m.f("monteCarlo.median", resp.MonteCarlo.Median, iv.Median)
	m.f("monteCarlo.p95", resp.MonteCarlo.P95, iv.P95)
	m.n("monteCarlo.samples", resp.MonteCarlo.Samples, iv.Samples)
	return m.err
}

// refCompare is one compare pair's library call.
func refCompare(ctx context.Context, workload string, f float64, p server.ComparePair, workers int) (base, alt []project.Trajectory, err error) {
	sc, err := scenario.Get(scenario.ID(p.Scenario))
	if err != nil {
		return nil, nil, err
	}
	return scenario.CompareModelCtx(ctx, sc, refWorkloads[workload], f, workers, refFactory(p.Model))
}

// checkRows checks node-major frontier rows against a design-major
// trajectory set.
func checkRows(m *mismatch, field string, rows []server.FrontierRowJSON, ts []project.Trajectory) {
	if len(ts) == 0 {
		m.n(field+" designs", 0, 1)
		return
	}
	m.n(field+" nodes", len(rows), len(ts[0].Points))
	if m.err != nil {
		return
	}
	for n, row := range rows {
		m.s(fmt.Sprintf("%s[%d].node", field, n), row.Node, ts[0].Points[n].Node.Name)
		m.n(fmt.Sprintf("%s[%d] designs", field, n), len(row.Points), len(ts))
		if m.err != nil {
			return
		}
		for j, t := range ts {
			p, g := t.Points[n], row.Points[j]
			pf := fmt.Sprintf("%s[%d].points[%d]", field, n, j)
			m.s(pf+".label", g.Label, t.Design.Label)
			m.b(pf+".valid", g.Valid, p.Valid)
			if !p.Valid {
				continue
			}
			m.n(pf+".r", g.R, p.Point.R)
			m.f(pf+".speedup", g.Speedup, p.Point.Speedup)
			m.s(pf+".limit", g.Limit, p.Point.Limit.String())
			m.f(pf+".energyNode", g.EnergyNode, p.EnergyNode)
		}
	}
}

func checkCompare(ctx context.Context, req server.CompareRequest, resp *server.CompareResponse) error {
	var m mismatch
	m.n("pairs", len(resp.Pairs), len(req.Pairs))
	for i, p := range req.Pairs {
		if m.err != nil {
			break
		}
		base, alt, err := refCompare(ctx, req.Workload, req.F, p, 1)
		if err != nil {
			return err
		}
		got := resp.Pairs[i]
		field := fmt.Sprintf("pairs[%d]", i)
		m.n(field+".scenario", got.Scenario, p.Scenario)
		checkRows(&m, field+".rows", got.Rows, alt)
		deltas := scenario.Deltas(base, alt)
		m.n(field+".deltas", len(got.Deltas), len(deltas))
		for n := 0; m.err == nil && n < len(deltas); n++ {
			m.n(fmt.Sprintf("%s.deltas[%d]", field, n), len(got.Deltas[n].Deltas), len(deltas[n]))
			for j := 0; m.err == nil && j < len(deltas[n]); j++ {
				g, w := got.Deltas[n].Deltas[j], deltas[n][j]
				df := fmt.Sprintf("%s.deltas[%d][%d]", field, n, j)
				m.b(df+".valid", g.Valid, w.Valid)
				if w.Valid {
					m.f(df+".delta", g.Delta, w.Delta)
				}
			}
		}
	}
	return m.err
}

// frontierResult is a strictly decoded frontier stream.
type frontierResult struct {
	header  server.FrontierStreamHeader
	rows    []server.FrontierRowJSON
	trailer server.FrontierStreamTrailer
}

func checkFrontier(ctx context.Context, req server.FrontierRequest, resp *frontierResult) error {
	sc, err := scenario.Get(scenario.ID(req.Scenario))
	if err != nil {
		return err
	}
	ts, err := scenario.RunModelCtx(ctx, sc, refWorkloads[req.Workload], req.F, 1, refFactory(req.Model))
	if err != nil {
		return err
	}
	var m mismatch
	m.n("header.designs", len(resp.header.Designs), len(ts))
	m.n("trailer.nodes", resp.trailer.Nodes, len(resp.rows))
	checkRows(&m, "rows", resp.rows, ts)
	return m.err
}
