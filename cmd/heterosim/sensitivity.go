package main

import (
	"context"
	"fmt"
	"os"

	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/report"
	"github.com/calcm/heterosim/internal/sensitivity"
)

// cmdSensitivity prints input elasticities and Monte Carlo speedup
// intervals for every design in a workload's lineup at one node.
func cmdSensitivity(args []string) error {
	fs := newFlagSet("sensitivity")
	wname := fs.String("workload", "FFT-1024", "workload")
	f := fs.Float64("f", 0.99, "parallel fraction")
	node := fs.Int("node", 0, "roadmap node index (0=40nm .. 4=11nm)")
	sigma := fs.Float64("sigma", 0.2, "log-normal input uncertainty for Monte Carlo")
	samples := fs.Int("samples", 1000, "Monte Carlo draws")
	workers := workersFlag(fs)
	resolveModel := modelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := paper.ParseWorkload(*wname)
	if err != nil {
		return err
	}
	sel, err := resolveModel()
	if err != nil {
		return err
	}
	cfg := project.DefaultConfig(w)
	nodes := cfg.Roadmap.Nodes()
	if *node < 0 || *node >= len(nodes) {
		return fmt.Errorf("sensitivity: node index %d out of range", *node)
	}
	budgets, err := cfg.BudgetsAt(nodes[*node])
	if err != nil {
		return err
	}
	designs, err := project.DesignsFor(w)
	if err != nil {
		return err
	}
	printModelBanner(sel)

	t := report.NewTable(
		fmt.Sprintf("Elasticities d ln(speedup)/d ln(input): %s, f=%.3f, %s",
			w, *f, nodes[*node].Name),
		"Design", "mu", "phi", "area", "power", "bandwidth")
	cell := func(prof map[sensitivity.Input]float64, in sensitivity.Input) string {
		v, ok := prof[in]
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, d := range designs {
		prof, err := sensitivity.ProfileCtx(context.Background(), sel.Model, d, *f, budgets, 0.01, *workers)
		if err != nil {
			t.AddRow(d.Label, "infeasible")
			continue
		}
		t.AddRow(d.Label,
			cell(prof, sensitivity.Mu), cell(prof, sensitivity.Phi),
			cell(prof, sensitivity.Area), cell(prof, sensitivity.Power),
			cell(prof, sensitivity.Bandwidth))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("(elasticity ~1: the input binds; ~0: slack — cross-checks the limit attribution)")
	fmt.Println()

	mc := report.NewTable(
		fmt.Sprintf("Monte Carlo speedup intervals (sigma=%.2f, %d draws)", *sigma, *samples),
		"Design", "nominal", "p05", "median", "p95")
	for _, d := range designs {
		iv, err := sensitivity.MonteCarloCtx(context.Background(), sel.Model, d, *f, budgets, *sigma, *samples, 1, *workers)
		if err != nil {
			mc.AddRow(d.Label, "infeasible")
			continue
		}
		mc.AddRowf(d.Label, iv.Nominal, iv.P05, iv.Median, iv.P95)
	}
	return mc.Render(os.Stdout)
}
