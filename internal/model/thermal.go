package model

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/pollack"
)

// thermalParams configures the multiamdahl-thermal backend: the
// Multi-Amdahl segment model plus the temperature budget of Yavits,
// Morad & Ginosar's thermal extension. With junction-to-ambient
// resistance thetaJA (kelvin per BCE power unit), steady state gives
// T = T_ambient + thetaJA · P, so the temperature budget is the power
// cap P_th = (tMaxC - tAmbientC) / thetaJA, applied alongside the
// nominal power budget.
type thermalParams struct {
	TMaxC     float64   `json:"tMaxC"`
	TAmbientC float64   `json:"tAmbientC"`
	ThetaJA   float64   `json:"thetaJA"`
	Segments  []Segment `json:"segments"`
}

const (
	defaultTMaxC     = 100.0
	defaultTAmbientC = 45.0
	defaultThetaJA   = 0.05
)

func (p *thermalParams) normalize() error {
	if p.TMaxC == 0 {
		p.TMaxC = defaultTMaxC
	}
	if p.TAmbientC == 0 {
		p.TAmbientC = defaultTAmbientC
	}
	if p.ThetaJA == 0 {
		p.ThetaJA = defaultThetaJA
	}
	if math.IsNaN(p.TMaxC) || math.IsNaN(p.TAmbientC) || p.TMaxC <= p.TAmbientC {
		return fmt.Errorf("model: tMaxC (%v) must exceed tAmbientC (%v)", p.TMaxC, p.TAmbientC)
	}
	if p.ThetaJA <= 0 || math.IsNaN(p.ThetaJA) || math.IsInf(p.ThetaJA, 0) {
		return fmt.Errorf("model: thetaJA must be a positive finite number, got %v", p.ThetaJA)
	}
	ma := maParams{Segments: p.Segments}
	if err := ma.normalize(); err != nil {
		return err
	}
	p.Segments = ma.Segments
	return nil
}

// powerCap is the thermally admissible power in BCE units.
func (p thermalParams) powerCap() float64 { return (p.TMaxC - p.TAmbientC) / p.ThetaJA }

type thermalBackend struct{}

func (thermalBackend) Info() Info {
	return Info{
		Name: "multiamdahl-thermal",
		Description: "MultiAmdahl-thermal (Yavits/Morad/Ginosar): the Multi-Amdahl segment model " +
			"with a temperature budget as a fourth constraint — steady-state junction " +
			"temperature caps usable power at (tMaxC - tAmbientC)/thetaJA.",
		Capabilities: []string{"optimize", "optimize-energy", "evaluate", "segments", "thermal-budget"},
		Params: []ParamSpec{
			{Name: "tMaxC", Type: "number", Default: "100",
				Description: "Maximum junction temperature, degrees Celsius."},
			{Name: "tAmbientC", Type: "number", Default: "45",
				Description: "Ambient (heatsink inlet) temperature, degrees Celsius."},
			{Name: "thetaJA", Type: "number", Default: "0.05",
				Description: "Junction-to-ambient thermal resistance, kelvin per BCE power unit."},
			{Name: "segments", Type: "array of {share, mu, phi}",
				Default:     `[{"share":1,"mu":1,"phi":1}]`,
				Description: "Multi-Amdahl segment partition; see the multiamdahl backend."},
		},
	}
}

func (thermalBackend) Configure(params json.RawMessage) (Factory, json.RawMessage, error) {
	var p thermalParams
	if err := decodeParams(params, &p); err != nil {
		return nil, nil, err
	}
	if err := p.normalize(); err != nil {
		return nil, nil, err
	}
	canon, err := canonicalParams(p)
	if err != nil {
		return nil, nil, err
	}
	return func(alpha float64, maxR int) (Model, error) {
		law, err := pollack.New(alpha)
		if err != nil {
			return nil, err
		}
		inner := multiAmdahlModel{law: law, maxR: maxR, segs: p.Segments}
		return thermalModel{inner: inner, maxR: maxR, cap: p.powerCap()}, nil
	}, canon, nil
}

// thermalModel wraps the Multi-Amdahl evaluation with the thermal power
// cap: the effective power budget is min(P, P_th), and when the cap is
// what lowered the budget and power is what binds the design point, the
// limit is reported as thermal-limited.
type thermalModel struct {
	inner multiAmdahlModel
	maxR  int
	cap   float64
}

func (m thermalModel) Name() string { return "multiamdahl-thermal" }

func (m thermalModel) Space() Space { return Space{MaxR: m.maxR, Kinds: allKinds()} }

func (m thermalModel) Evaluate(d core.Design, f float64, b bounds.Budgets, r int) (core.Point, error) {
	eb, capped := m.budgets(b)
	p, err := m.inner.Evaluate(d, f, eb, r)
	if err != nil {
		return core.Point{}, err
	}
	return relabel(p, capped), nil
}

func (m thermalModel) Optimize(d core.Design, f float64, b bounds.Budgets) (core.Point, error) {
	return m.optimize(d, f, b, false)
}

func (m thermalModel) OptimizeEnergy(d core.Design, f float64, b bounds.Budgets) (core.Point, error) {
	return m.optimize(d, f, b, true)
}

// optimize runs the Multi-Amdahl scan under the thermally capped
// budgets. Relabelling the winner afterwards is exact: the scan compares
// speedup or energy only, never the limit.
func (m thermalModel) optimize(d core.Design, f float64, b bounds.Budgets, energy bool) (core.Point, error) {
	eb, capped := m.budgets(b)
	if p, ok := m.inner.scan(d, f, eb, energy); ok {
		return relabel(p, capped), nil
	}
	_, err := m.Evaluate(d, f, b, gridMaxR(m.maxR))
	return core.Point{}, noFeasibleR(err)
}

// budgets applies the thermal cap: the effective power budget is
// min(P, P_th), and capped reports whether the cap lowered it.
func (m thermalModel) budgets(b bounds.Budgets) (eb bounds.Budgets, capped bool) {
	if m.cap < b.Power {
		b.Power = m.cap
		return b, true
	}
	return b, false
}

// relabel reports a power-limited point as thermal-limited when the
// thermal cap is what lowered the power budget.
func relabel(p core.Point, capped bool) core.Point {
	if capped && p.Limit == bounds.PowerLimited {
		p.Limit = bounds.ThermalLimited
	}
	return p
}
