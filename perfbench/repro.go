package main

import (
	"context"
	"fmt"
	"math"

	"github.com/calcm/heterosim/internal/baseline"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/itrs"
	"github.com/calcm/heterosim/internal/measure"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/scenario"
	"github.com/calcm/heterosim/internal/sensitivity"
	"github.com/calcm/heterosim/internal/sim"
	"github.com/calcm/heterosim/internal/validate"
)

// One paper-repro operation: every table and figure the paper derives,
// regenerated through the library builders `heterosim all` renders,
// plus the six scenarios, the conclusion check and a sensitivity study.
// The steps run serially; the closed loop supplies the parallelism.

// Step names, which are also the traced run's per-layer metric names.
const (
	stepFigure2     = "baseline.figure2_ms"
	stepFigure34    = "baseline.figure34_ms"
	stepTable4      = "baseline.table4_ms"
	stepTable5      = "baseline.table5_ms"
	stepFigures     = "project.figures_ms"
	stepScenarios   = "scenario.all_ms"
	stepConclusions = "validate.conclusions_ms"
	stepSensitivity = "sensitivity.study_ms"
)

var reproSteps = []string{stepFigure2, stepFigure34, stepTable4, stepTable5, stepFigures, stepScenarios, stepConclusions, stepSensitivity}

// table5Tolerance is how far a derived Table 5 cell may sit from the
// published value: the calibration's acceptance band, the one
// internal/baseline's TestBuildTable5MatchesPublished holds it to.
const table5Tolerance = 0.02

// reproduce runs one reproduction. step wraps each builder; the traced
// run passes one that times it.
func reproduce(ctx context.Context, step func(name string, fn func() error) error) error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{stepFigure2, func() error {
			s, err := sim.New()
			if err != nil {
				return err
			}
			_, err = baseline.BuildFigure2(s)
			return err
		}},
		{stepFigure34, func() error {
			s, err := sim.New()
			if err != nil {
				return err
			}
			if _, err := baseline.BuildFigure3(s); err != nil {
				return err
			}
			_, err = baseline.BuildFigure4(s)
			return err
		}},
		{stepTable4, func() error {
			rig, err := measure.IdealRig()
			if err != nil {
				return err
			}
			_, err = baseline.BuildTable4(rig)
			return err
		}},
		{stepTable5, func() error {
			rig, err := measure.IdealRig()
			if err != nil {
				return err
			}
			cells, err := baseline.BuildTable5(rig)
			if err != nil {
				return err
			}
			return checkTable5(cells)
		}},
		{stepFigures, func() error { return projectFigures(ctx) }},
		{stepScenarios, func() error {
			for _, s := range scenario.All() {
				if _, _, err := scenario.CompareModelCtx(ctx, s, paper.FFT1024, 0.9, 1, nil); err != nil {
					return fmt.Errorf("scenario %d: %w", s.ID, err)
				}
			}
			return nil
		}},
		{stepConclusions, func() error {
			for _, r := range []struct {
				name string
				rm   itrs.Roadmap
			}{{"ITRS-2009", itrs.ITRS2009()}, {"back-cast", validate.BackcastRoadmap()}} {
				rep, err := validate.CheckConclusions(r.name, r.rm)
				if err != nil {
					return err
				}
				if !rep.AllHold() {
					return fmt.Errorf("conclusions fail on the %s roadmap", r.name)
				}
			}
			return nil
		}},
		{stepSensitivity, func() error { return sensitivityStudy(ctx) }},
	}
	for _, s := range steps {
		if err := step(s.name, s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// checkTable5 requires every published cell to be derived, and to
// match it to the paper's printed precision.
func checkTable5(cells []baseline.Table5Cell) error {
	want := 0
	for _, row := range paper.Table5 {
		want += len(row)
	}
	got := 0
	for _, c := range cells {
		if !c.HasRef {
			continue
		}
		got++
		pub := paper.Table5[c.Device][c.Workload]
		if math.Abs(c.Derived.Mu/pub.Mu-1) > table5Tolerance || math.Abs(c.Derived.Phi/pub.Phi-1) > table5Tolerance {
			return fmt.Errorf("table 5 %s/%s: derived (mu %g, phi %g), published (%g, %g)",
				c.Device, c.Workload, c.Derived.Mu, c.Derived.Phi, pub.Mu, pub.Phi)
		}
	}
	if got != want {
		return fmt.Errorf("table 5: derived %d of %d published cells", got, want)
	}
	return nil
}

// projectFigures regenerates Figures 6-10: the baseline projections of
// FFT-1024, MMM and Black-Scholes, FFT-1024 at 1 TB/s, and the MMM
// energy projection.
func projectFigures(ctx context.Context) error {
	for _, fig := range []struct {
		w     paper.WorkloadID
		fs    []float64
		scen  scenario.ID
		power bool
	}{
		{paper.FFT1024, paper.ProjectionFractions, scenario.Baseline, false},
		{paper.MMM, paper.ProjectionFractions, scenario.Baseline, false},
		{paper.BS, paper.BSProjectionFractions, scenario.Baseline, false},
		{paper.FFT1024, paper.ProjectionFractions, scenario.HighBandwidth, false},
		{paper.MMM, paper.EnergyProjectionFractions, scenario.Baseline, true},
	} {
		s, err := scenario.Get(fig.scen)
		if err != nil {
			return err
		}
		cfg := s.Apply(project.DefaultConfig(fig.w))
		cfg.Workers = 1
		proj := project.ProjectCtx
		if fig.power {
			proj = project.ProjectEnergyCtx
		}
		for _, f := range fig.fs {
			if _, err := proj(ctx, cfg, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// sensitivityStudy is `heterosim sensitivity` at its defaults:
// elasticities and a 1000-draw Monte Carlo interval for every FFT-1024
// design at 40nm, f = 0.99.
func sensitivityStudy(ctx context.Context) error {
	cfg := project.DefaultConfig(paper.FFT1024)
	b, err := cfg.BudgetsAt(cfg.Roadmap.Nodes()[0])
	if err != nil {
		return err
	}
	designs, err := project.DesignsFor(paper.FFT1024)
	if err != nil {
		return err
	}
	ev := core.NewEvaluator()
	for _, d := range designs {
		if _, err := sensitivity.ProfileCtx(ctx, ev, d, 0.99, b, 0.01, 1); err != nil {
			return fmt.Errorf("%s: %w", d.Label, err)
		}
		if _, err := sensitivity.MonteCarloCtx(ctx, ev, d, 0.99, b, 0.2, 1000, 1, 1); err != nil {
			return fmt.Errorf("%s: %w", d.Label, err)
		}
	}
	return nil
}
