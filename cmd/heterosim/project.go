package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"github.com/calcm/heterosim/internal/baseline"
	"github.com/calcm/heterosim/internal/measure"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/report"
	"github.com/calcm/heterosim/internal/scenario"
	"github.com/calcm/heterosim/internal/sim"
)

func parseWorkload(s string) (paper.WorkloadID, error) {
	switch s {
	case "MMM", "mmm":
		return paper.MMM, nil
	case "BS", "bs", "blackscholes":
		return paper.BS, nil
	case "FFT-64", "fft-64":
		return paper.FFT64, nil
	case "FFT-1024", "fft-1024", "FFT", "fft":
		return paper.FFT1024, nil
	case "FFT-16384", "fft-16384":
		return paper.FFT16384, nil
	default:
		return "", fmt.Errorf("unknown workload %q (want MMM, BS, FFT-64, FFT-1024, FFT-16384)", s)
	}
}

func cmdCalibrate(args []string) error {
	fs := newFlagSet("calibrate")
	noise := fs.Float64("noise", 0, "relative probe noise (0 = ideal)")
	samples := fs.Int("samples", 1, "probe samples averaged per measurement")
	seed := fs.Int64("seed", 1, "probe noise seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rig, err := newRig(*noise, *seed, *samples)
	if err != nil {
		return err
	}
	cells, err := baseline.BuildTable5(rig)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Calibration (noise=%.3f, samples=%d): derived vs published Table 5", *noise, *samples),
		"Device", "Workload", "phi", "mu", "pub phi", "pub mu", "mu err %")
	for _, c := range cells {
		muErr := "-"
		pubPhi, pubMu := "-", "-"
		if c.HasRef {
			pubPhi = report.FormatFloat(c.Published.Phi)
			pubMu = report.FormatFloat(c.Published.Mu)
			muErr = fmt.Sprintf("%.2f", 100*(c.Derived.Mu/c.Published.Mu-1))
		}
		t.AddRow(string(c.Device), string(c.Workload),
			report.FormatFloat(c.Derived.Phi), report.FormatFloat(c.Derived.Mu),
			pubPhi, pubMu, muErr)
	}
	return t.Render(os.Stdout)
}

func newRig(noise float64, seed int64, samples int) (*measure.Rig, error) {
	if noise == 0 && samples == 1 {
		return measure.IdealRig()
	}
	s, err := sim.New()
	if err != nil {
		return nil, err
	}
	return measure.NewRig(s, noise, seed, samples)
}

func cmdProject(args []string) error {
	fs := newFlagSet("project")
	wname := fs.String("workload", "FFT-1024", "workload: MMM, BS, FFT-64, FFT-1024, FFT-16384")
	f := fs.Float64("f", 0.99, "parallel fraction")
	scen := fs.Int("scenario", 0, "scenario 0 (baseline) to 6")
	power := fs.Float64("power", 0, "override power budget in watts (0 = scenario default)")
	bw := fs.Float64("bandwidth", 0, "override starting bandwidth in GB/s (0 = scenario default)")
	area := fs.Float64("areascale", 0, "override area scale factor (0 = scenario default)")
	csvOut := fs.Bool("csv", false, "emit CSV")
	workers := workersFlag(fs)
	resolveModel := modelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := parseWorkload(*wname)
	if err != nil {
		return err
	}
	sel, err := resolveModel()
	if err != nil {
		return err
	}
	s, err := scenario.Get(scenario.ID(*scen))
	if err != nil {
		return err
	}
	cfg := s.Apply(project.DefaultConfig(w))
	cfg.Model = sel.Factory
	cfg.Workers = *workers
	if *power > 0 {
		cfg.PowerBudgetW = *power
	}
	if *bw > 0 {
		cfg.BaseBandwidthGBs = *bw
	}
	if *area > 0 {
		cfg.AreaScale = *area
	}
	ts, err := project.Project(cfg, *f)
	if err != nil {
		return err
	}
	if !*csvOut {
		printModelBanner(sel)
	}
	return renderTrajectories(os.Stdout, ts, cfg, *f, *csvOut)
}

func renderTrajectories(out io.Writer, ts []project.Trajectory, cfg project.Config, f float64, csvOut bool) error {
	nodes := cfg.Roadmap.Nodes()
	labels := make([]string, len(nodes))
	for i, n := range nodes {
		labels[i] = n.Name
	}
	if csvOut {
		var rows [][]string
		for _, tr := range ts {
			vals := make([]float64, len(tr.Points))
			for i, p := range tr.Points {
				if p.Valid {
					vals[i] = p.Point.Speedup
				} else {
					vals[i] = math.NaN()
				}
			}
			rows = append(rows, report.FloatRow(tr.Design.Label, vals...))
		}
		return report.WriteCSV(out, append([]string{"design"}, labels...), rows)
	}
	t := report.NewTable(
		fmt.Sprintf("Projection: %s, f=%.3f (speedup vs 1 BCE; a/p/b = limiting factor)", cfg.Workload, f),
		append([]string{"Design"}, labels...)...)
	for _, tr := range ts {
		row := []string{tr.Design.Label}
		for _, p := range tr.Points {
			if !p.Valid {
				row = append(row, "infeasible")
				continue
			}
			row = append(row, fmt.Sprintf("%s (%s,r=%d)",
				report.FormatFloat(p.Point.Speedup), p.Point.Limit.String()[:1], p.Point.R))
		}
		t.AddRow(row...)
	}
	return t.Render(out)
}

func cmdScenario(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("scenario: which one? (1-6)")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 1 || n > 6 {
		return fmt.Errorf("scenario: want 1-6, got %q", args[0])
	}
	fs := newFlagSet("scenario")
	wname := fs.String("workload", "FFT-1024", "workload")
	f := fs.Float64("f", 0.9, "parallel fraction")
	workers := workersFlag(fs)
	resolveModel := modelFlag(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	w, err := parseWorkload(*wname)
	if err != nil {
		return err
	}
	sel, err := resolveModel()
	if err != nil {
		return err
	}
	s, err := scenario.Get(scenario.ID(n))
	if err != nil {
		return err
	}
	fmt.Printf("Scenario %d: %s\n  Rationale: %s\n  Paper's finding: %s\n\n",
		n, s.Name, s.Rationale, s.Expectation)
	printModelBanner(sel)
	base, alt, err := scenario.CompareModelCtx(context.Background(), s, w, *f, *workers, sel.Factory)
	if err != nil {
		return err
	}
	cfg := project.DefaultConfig(w)
	fmt.Println("Baseline:")
	if err := renderTrajectories(os.Stdout, base, cfg, *f, false); err != nil {
		return err
	}
	fmt.Println()
	fmt.Printf("Under %s:\n", s.Name)
	return renderTrajectories(os.Stdout, alt, s.Apply(cfg), *f, false)
}

func cmdEnergy(args []string) error {
	fs := newFlagSet("energy")
	wname := fs.String("workload", "MMM", "workload")
	f := fs.Float64("f", 0.9, "parallel fraction")
	workers := workersFlag(fs)
	resolveModel := modelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := parseWorkload(*wname)
	if err != nil {
		return err
	}
	sel, err := resolveModel()
	if err != nil {
		return err
	}
	cfg := project.DefaultConfig(w)
	cfg.Model = sel.Factory
	cfg.Workers = *workers
	ts, err := project.ProjectEnergy(cfg, *f)
	if err != nil {
		return err
	}
	printModelBanner(sel)
	nodes := cfg.Roadmap.Nodes()
	labels := make([]string, len(nodes))
	for i, n := range nodes {
		labels[i] = n.Name
	}
	t := report.NewTable(
		fmt.Sprintf("Energy projection: %s, f=%.3f (task energy normalized to 1 BCE at 40nm)", w, *f),
		append([]string{"Design"}, labels...)...)
	for _, tr := range ts {
		row := []string{tr.Design.Label}
		for _, p := range tr.Points {
			if !p.Valid {
				row = append(row, "infeasible")
			} else {
				row = append(row, report.FormatFloat(p.EnergyNode))
			}
		}
		t.AddRow(row...)
	}
	return t.Render(os.Stdout)
}

func cmdAll(args []string) error {
	fs := newFlagSet("all")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wk := *workers
	// Tables 4 and 5 regenerate from the same measurement database;
	// whichever step runs first builds it for both.
	db := sync.OnceValues(idealDatabase)
	steps := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"Table 1", renderTable1},
		{"Table 2", renderTable2},
		{"Table 3", renderTable3},
		{"Table 4", func(out io.Writer) error { return renderTable4(out, db) }},
		{"Table 5", func(out io.Writer) error { return renderTable5(out, db) }},
		{"Table 6", renderTable6},
		{"Figure 2", func(out io.Writer) error { return renderFigure2(out, false) }},
		{"Figure 3", func(out io.Writer) error { return renderFigure3(out, false) }},
		{"Figure 4", func(out io.Writer) error { return renderFigure4(out, false) }},
		{"Figure 5", func(out io.Writer) error { return renderFigure5(out, false) }},
		{"Figure 6", func(out io.Writer) error {
			return renderProjectionFigure(out, paper.FFT1024, paper.ProjectionFractions,
				"Figure 6: FFT-1024 projection", scenario.Baseline, false, wk)
		}},
		{"Figure 7", func(out io.Writer) error {
			return renderProjectionFigure(out, paper.MMM, paper.ProjectionFractions,
				"Figure 7: MMM projection", scenario.Baseline, false, wk)
		}},
		{"Figure 8", func(out io.Writer) error {
			return renderProjectionFigure(out, paper.BS, paper.BSProjectionFractions,
				"Figure 8: Black-Scholes projection", scenario.Baseline, false, wk)
		}},
		{"Figure 9", func(out io.Writer) error {
			return renderProjectionFigure(out, paper.FFT1024, paper.ProjectionFractions,
				"Figure 9: FFT-1024 projection at 1 TB/s", scenario.HighBandwidth, false, wk)
		}},
		{"Figure 10", func(out io.Writer) error { return renderFigure10(out, false, wk) }},
	}
	// Render every step into its own buffer across the worker pool, then
	// emit the buffers in step order: identical bytes to a serial run, at
	// a fraction of the wall clock.
	bufs, err := par.Map(context.Background(), len(steps), wk,
		func(_ context.Context, i int) (*bytes.Buffer, error) {
			var buf bytes.Buffer
			if err := steps[i].fn(&buf); err != nil {
				return nil, fmt.Errorf("%s: %w", steps[i].name, err)
			}
			return &buf, nil
		})
	if err != nil {
		return err
	}
	for i, st := range steps {
		fmt.Printf("==== %s ====\n", st.name)
		if _, err := bufs[i].WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
