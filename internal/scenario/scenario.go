// Package scenario implements the six alternative scaling scenarios of
// Section 6.2: each is a named transformation of the baseline projection
// configuration, approximating a different technology or market
// assumption (cheaper/disruptive memory interfaces, lower-cost dies,
// high-end cooling, mobile power envelopes, and power-hungrier sequential
// cores).
package scenario

import (
	"context"
	"fmt"

	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/pollack"
	"github.com/calcm/heterosim/internal/project"
)

// ID numbers the scenarios as the paper does (1-6). Zero is the baseline.
type ID int

// Scenario identifiers.
const (
	Baseline ID = iota
	LowBandwidth
	HighBandwidth
	HalfArea
	DoublePower
	MobilePower
	SerialPower
)

// Scenario is one Section 6.2 configuration transform.
type Scenario struct {
	ID          ID
	Name        string
	Rationale   string // why the paper studies it
	apply       func(project.Config) project.Config
	Expectation string // the paper's qualitative finding
}

// Apply returns cfg transformed by the scenario.
func (s Scenario) Apply(cfg project.Config) project.Config {
	if s.apply == nil {
		return cfg
	}
	return s.apply(cfg)
}

// All returns the baseline plus the six scenarios in paper order.
func All() []Scenario {
	return []Scenario{
		{
			ID: Baseline, Name: "baseline",
			Rationale:   "Table 6 assumptions: 432 mm², 100 W, 180 GB/s scaling per ITRS 2009",
			Expectation: "HETs need f >= 0.9 to pull away; ASIC FFT/BS bandwidth-limited throughout",
		},
		{
			ID: LowBandwidth, Name: "90 GB/s start",
			Rationale: "approximates a reduction in off-chip bandwidth costs (half of high-end 40nm)",
			apply: func(c project.Config) project.Config {
				c.BaseBandwidthGBs = 90
				return c
			},
			Expectation: "FPGAs/GPUs converge to ASIC performance a node earlier; for FFT the CMPs come within ~2x of the ASIC by 22nm",
		},
		{
			ID: HighBandwidth, Name: "1 TB/s start",
			Rationale: "approximates disruptive memory technologies (embedded DRAM, 3D stacking)",
			apply: func(c project.Config) project.Config {
				c.BaseBandwidthGBs = 1000
				return c
			},
			Expectation: "most designs become power-limited; at f=0.9 HETs gain ~2-3x over CMPs; ASIC only ~2x over other HETs at f >= 0.999",
		},
		{
			ID: HalfArea, Name: "216 mm² core area",
			Rationale: "approximates lower-cost manufacturing (higher yield)",
			apply: func(c project.Config) project.Config {
				c.AreaScale = 0.5
				return c
			},
			Expectation: "earlier nodes lose speedup (area-limited); at <= 22nm results match the full budget because power limits first",
		},
		{
			ID: DoublePower, Name: "200 W budget",
			Rationale: "approximates high-end cooling and power delivery",
			apply: func(c project.Config) project.Config {
				c.PowerBudgetW = 200
				return c
			},
			Expectation: "the relative benefit of energy-efficient HETs diminishes; CMPs close the gap, especially once HETs are bandwidth-limited",
		},
		{
			ID: MobilePower, Name: "10 W budget",
			Rationale: "approximates power-constrained laptops and mobiles",
			apply: func(c project.Config) project.Config {
				c.PowerBudgetW = 10
				return c
			},
			Expectation: "only ASIC-based HETs approach bandwidth-limited performance, a decisive advantage",
		},
		{
			ID: SerialPower, Name: "alpha = 2.25",
			Rationale: "approximates sequential cores whose power grows faster with performance",
			apply: func(c project.Config) project.Config {
				c.Alpha = pollack.ScenarioSixAlpha
				return c
			},
			Expectation: "speedups at f <= 0.9 drop significantly: the serial power bound caps the optimal sequential core size",
		},
	}
}

// Get returns the scenario with the given ID.
func Get(id ID) (Scenario, error) {
	for _, s := range All() {
		if s.ID == id {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %d", int(id))
}

// Run projects a workload at parallel fraction f under the scenario
// with the default (GOMAXPROCS) worker pool.
func Run(s Scenario, w paper.WorkloadID, f float64) ([]project.Trajectory, error) {
	return RunModelCtx(context.Background(), s, w, f, 0, nil)
}

// RunModelCtx is Run bounded by ctx (nil = Background), with an
// explicit worker-pool size (<= 0 means GOMAXPROCS) and a model backend:
// mk selects the model evaluating every design x node cell (nil means
// the default, chung). The factory is applied after the scenario's
// configuration transform, so e.g. Scenario 6's alpha override reaches
// the backend. Results are identical at every worker count, and
// cancellation aborts the projection between cells with ctx.Err().
func RunModelCtx(ctx context.Context, s Scenario, w paper.WorkloadID, f float64, workers int, mk model.Factory) ([]project.Trajectory, error) {
	cfg := s.Apply(project.DefaultConfig(w))
	cfg.Workers = workers
	cfg.Model = mk
	return project.ProjectCtx(ctx, cfg, f)
}

// Compare runs baseline and scenario side by side and returns both
// trajectory sets in that order.
func Compare(s Scenario, w paper.WorkloadID, f float64) (base, alt []project.Trajectory, err error) {
	return CompareModelCtx(context.Background(), s, w, f, 0, nil)
}

// CompareModelCtx is Compare with RunModelCtx's ctx, worker and model
// arguments: both the baseline and alternative projections run on the
// same backend, so the comparison isolates the scenario, not the model,
// and one deadline covers both.
func CompareModelCtx(ctx context.Context, s Scenario, w paper.WorkloadID, f float64, workers int, mk model.Factory) (base, alt []project.Trajectory, err error) {
	baseScen, err := Get(Baseline)
	if err != nil {
		return nil, nil, err
	}
	base, err = RunModelCtx(ctx, baseScen, w, f, workers, mk)
	if err != nil {
		return nil, nil, err
	}
	alt, err = RunModelCtx(ctx, s, w, f, workers, mk)
	if err != nil {
		return nil, nil, err
	}
	return base, alt, nil
}
