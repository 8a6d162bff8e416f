package model_test

import (
	"testing"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/ucore"
)

// optimizeInput is one single-point Optimize call.
type optimizeInput struct {
	d core.Design
	f float64
	b bounds.Budgets
}

// servingInputs builds the calls a cold serving mix makes: every
// workload × node × design cell the serving layer can resolve (the
// symmetric and offload CMPs plus each device with published U-core
// parameters), at parallel fractions across [0.5, 0.95] and bandwidth
// scaled from 0.5× to 2×, on the default roadmap's budgets.
func servingInputs(tb testing.TB) []optimizeInput {
	tb.Helper()
	workloads := []paper.WorkloadID{paper.MMM, paper.BS, paper.FFT1024}
	nodes := []string{"40nm", "32nm", "22nm", "16nm", "11nm"}
	devices := []paper.DeviceID{paper.GTX285, paper.GTX480, paper.R5870, paper.LX760, paper.ASIC}
	fs := []float64{0.5, 0.65, 0.8, 0.95}
	bwScales := []float64{0.5, 1, 2}
	var out []optimizeInput
	for _, w := range workloads {
		designs := []core.Design{{Kind: core.SymCMP}, {Kind: core.AsymCMP}}
		for _, dev := range devices {
			if p, ok := ucore.PublishedParams(dev, w); ok {
				designs = append(designs, core.Design{Kind: core.Het, UCore: bounds.UCore{Mu: p.Mu, Phi: p.Phi}})
			}
		}
		for _, node := range nodes {
			base, err := project.DefaultBudgets(w, node)
			if err != nil {
				tb.Fatal(err)
			}
			for _, d := range designs {
				for _, f := range fs {
					for _, s := range bwScales {
						b := base
						b.Bandwidth *= s
						out = append(out, optimizeInput{d: d, f: f, b: b})
					}
				}
			}
		}
	}
	return out
}

// BenchmarkModelOptimize measures one Optimize call per backend, cycling
// through servingInputs; chung's analytic optimizer is the reference
// row for the three r-scanning backends.
func BenchmarkModelOptimize(b *testing.B) {
	inputs := servingInputs(b)
	for _, name := range model.Names() {
		m, _, err := model.New(name, 0, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := &inputs[i%len(inputs)]
				if _, err := m.Optimize(in.d, in.f, in.b); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
