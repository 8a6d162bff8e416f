package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/calcm/heterosim/internal/amdahl"
	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/pollack"
)

// sqrtmParams configures the sqrtm backend: theta is the area-to-
// performance exponent of the generalized sequential law
// perf_seq(r) = r^theta. Ginosar's sqrt(m) complexity argument — a core
// of m resources can usefully exploit about sqrt(m) of them — derives
// theta = 1/2 analytically, which is exactly Pollack's empirical rule;
// other exponents in (0, 1] explore how the paper's conclusions depend
// on that assumption.
type sqrtmParams struct {
	Theta float64 `json:"theta"`
}

type sqrtmBackend struct{}

func (sqrtmBackend) Info() Info {
	return Info{
		Name: "sqrtm",
		Description: "Ginosar's sqrt(m) complexity scaling generalized to perf_seq(r) = r^theta " +
			"with power_seq = r^(alpha*theta); theta = 0.5 reproduces Pollack's rule and the " +
			"chung baseline exactly.",
		Capabilities: []string{"optimize", "optimize-energy", "evaluate", "scaling-exponent"},
		Params: []ParamSpec{{
			Name: "theta", Type: "number", Default: "0.5",
			Description: "Area-to-performance exponent in (0, 1]; 0.5 is Pollack/sqrt(m).",
		}},
	}
}

func (sqrtmBackend) New(alpha float64, maxR int, params json.RawMessage) (Model, json.RawMessage, error) {
	p := sqrtmParams{Theta: pollack.DefaultTheta}
	if err := decodeParams(params, &p); err != nil {
		return nil, nil, err
	}
	scal, err := pollack.NewScaling(alpha, p.Theta)
	if err != nil {
		return nil, nil, err
	}
	canon, err := canonicalParams(p)
	if err != nil {
		return nil, nil, err
	}
	return sqrtmModel{scal: scal, maxR: maxR}, canon, nil
}

// sqrtmModel re-derives the whole Chung framework — Table 1 bounds,
// speedup, normalized energy — under the generalized sequential law.
// Every expression keeps the baseline's exact float64 form when
// theta = 1/2 (math.Sqrt fast paths; alpha*0.5 is the same float64 as
// alpha/2), so the backend degrades to chung bit for bit at the
// default exponent.
type sqrtmModel struct {
	scal pollack.Scaling
	maxR int
}

func (m sqrtmModel) Name() string { return "sqrtm" }

func (m sqrtmModel) Space() Space { return Space{MaxR: m.maxR, Kinds: allKinds()} }

// serialBound names the serial bound a core size violates, if any.
type serialBound int

const (
	serialOK serialBound = iota
	serialArea
	serialPower
	serialBandwidth
)

// serialCheck is the serial-bound test under the generalized law:
// r <= A, r^(alpha*theta) <= P, and serial bandwidth perf(r) <= B,
// checked in that order for r >= 1. At theta = 1/2 the bandwidth check
// keeps the baseline's exact r > B*B comparison rather than the
// algebraically equal sqrt(r) > B. It returns the first bound violated
// and, for power and theta != 1/2 bandwidth, the quantity that
// exceeded its budget. (Power and Perf fail only for r < 1.)
func (m sqrtmModel) serialCheck(b bounds.Budgets, r float64) (serialBound, float64) {
	if r > b.Area {
		return serialArea, r
	}
	if pw, _ := m.scal.Power(r); pw > b.Power {
		return serialPower, pw
	}
	if m.scal.Theta() == pollack.DefaultTheta {
		if r > b.Bandwidth*b.Bandwidth {
			return serialBandwidth, r
		}
	} else if pf, _ := m.scal.Perf(r); pf > b.Bandwidth {
		return serialBandwidth, pf
	}
	return serialOK, 0
}

// serialFeasible is bounds.SerialFeasible under the generalized law: it
// reports serialCheck's verdict as an error.
func (m sqrtmModel) serialFeasible(b bounds.Budgets, r float64) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if r < 1 || math.IsNaN(r) {
		return errors.New("bounds: r must be >= 1")
	}
	switch bound, x := m.serialCheck(b, r); bound {
	case serialArea:
		return fmt.Errorf("bounds: serial area bound violated: r=%.3g > A=%.3g", r, b.Area)
	case serialPower:
		return fmt.Errorf("bounds: serial power bound violated: r^(a*theta)=%.3g > P=%.3g", x, b.Power)
	case serialBandwidth:
		if m.scal.Theta() == pollack.DefaultTheta {
			return fmt.Errorf("bounds: serial bandwidth bound violated: r=%.3g > B^2=%.3g", r, b.Bandwidth*b.Bandwidth)
		}
		return fmt.Errorf("bounds: serial bandwidth bound violated: r^theta=%.3g > B=%.3g", x, b.Bandwidth)
	}
	return nil
}

// serialCap is bounds.SerialCap under the generalized law: the largest
// r in [1, maxR] serialCheck accepts, or 0 when it rejects r = 1. The
// closed form is r <= min(A, P^(1/(alpha*theta)), B^(1/theta)), with B²
// at theta = 1/2; bounds.SettleCap settles its boundary with
// serialCheck's exact comparisons. The budgets must already be valid.
func (m sqrtmModel) serialCap(b bounds.Budgets, maxR int) int {
	bw := b.Bandwidth * b.Bandwidth
	if m.scal.Theta() != pollack.DefaultTheta {
		bw = math.Pow(b.Bandwidth, 1/m.scal.Theta())
	}
	cap := math.Min(b.Area, math.Min(math.Pow(b.Power, 1/m.scal.PowExp()), bw))
	return bounds.SettleCap(cap, maxR, func(r float64) bool {
		bound, _ := m.serialCheck(b, r)
		return bound == serialOK
	})
}

func (m sqrtmModel) Evaluate(d core.Design, f float64, b bounds.Budgets, r int) (core.Point, error) {
	eb, err := evalInputs(d, f, b, r)
	if err != nil {
		return core.Point{}, err
	}
	if err := m.serialFeasible(eb, float64(r)); err != nil {
		return core.Point{}, err
	}
	e := sqrtmEval{scal: m.scal, d: d, f: f, eb: eb}
	k := kernel{bound: e.bound, energyNorm: e.energyNorm}
	p, ok := k.at(d, f, r)
	if !ok {
		return core.Point{}, amdahl.ErrNoProgram
	}
	return p, nil
}

func (m sqrtmModel) Optimize(d core.Design, f float64, b bounds.Budgets) (core.Point, error) {
	return m.optimize(d, f, b, false)
}

func (m sqrtmModel) OptimizeEnergy(d core.Design, f float64, b bounds.Budgets) (core.Point, error) {
	return m.optimize(d, f, b, true)
}

func (m sqrtmModel) optimize(d core.Design, f float64, b bounds.Budgets, energy bool) (core.Point, error) {
	if p, ok := m.scan(d, f, b, energy); ok {
		return p, nil
	}
	_, err := m.Evaluate(d, f, b, gridMaxR(m.maxR))
	return core.Point{}, noFeasibleR(err)
}

// scan is the optimizer without its error path: it validates the inputs
// once, bounds r by serialCap, and runs the per-r kernel over that range
// only. It reports false when no r is feasible.
func (m sqrtmModel) scan(d core.Design, f float64, b bounds.Budgets, energy bool) (core.Point, bool) {
	eb, err := evalInputs(d, f, b, 1)
	if err != nil || eb.Validate() != nil {
		return core.Point{}, false
	}
	e := sqrtmEval{scal: m.scal, d: d, f: f, eb: eb}
	k := kernel{bound: e.bound, energyNorm: e.energyNorm}
	return k.scan(d, f, m.serialCap(eb, gridMaxR(m.maxR)), energy)
}

// sqrtmEval holds one kernel input: the validated design, fraction and
// effective budgets.
type sqrtmEval struct {
	scal pollack.Scaling
	d    core.Design
	f    float64
	eb   bounds.Budgets
}

// bound is kernel.bound: the Table 1 bound and the speedup at r.
func (e *sqrtmEval) bound(r int) (n, speedup float64, lim bounds.Limit, ok bool) {
	d, f, eb := &e.d, e.f, &e.eb
	rf := float64(r)
	pf, _ := e.scal.Perf(rf) // fails only for r < 1

	// Table 1 bounds with the generalized exponents: the symmetric power
	// column's r^(alpha/2 - 1) becomes r^(alpha*theta - 1) and its
	// bandwidth column's sqrt(r) becomes perf(r); the offload and
	// heterogeneous columns are exponent-free and carry over unchanged.
	var bd bounds.Bound
	switch d.Kind {
	case core.SymCMP:
		nPow := eb.Power / math.Pow(rf, e.scal.PowExp()-1)
		nBW := eb.Bandwidth * pf
		bd = bounds.Attribute(rf, eb.Area, nPow, nBW)
	case core.AsymCMP:
		bd = bounds.Attribute(rf, eb.Area, eb.Power+rf, eb.Bandwidth+rf)
	case core.Het:
		bd = bounds.Attribute(rf, eb.Area, eb.Power/d.UCore.Phi+rf, eb.Bandwidth/d.UCore.Mu+rf)
	}

	// Attribute already clamps n to at least r.
	n = bd.N
	switch d.Kind {
	case core.SymCMP:
		speedup = 1 / ((1-f)/pf + f*rf/(n*pf))
	case core.AsymCMP:
		if f == 0 {
			speedup = pf
			break
		}
		if n == rf {
			return 0, 0, 0, false
		}
		speedup = 1 / ((1-f)/pf + f/(n-rf))
	case core.Het:
		if f == 0 {
			speedup = pf
			break
		}
		if n == rf {
			return 0, 0, 0, false
		}
		speedup = 1 / ((1-f)/pf + f/(d.UCore.Mu*(n-rf)))
	}
	return n, speedup, bd.Limit, true
}

// energyNorm is kernel.energyNorm. It mirrors
// core.energyNorm — same expression shape (serial + f·ratio, ratio
// formed first) so theta = 1/2 rounds identically; the symmetric
// parallel ratio power/perf per BCE generalizes from r^((alpha-1)/2) to
// r^(theta*(alpha-1)).
func (e *sqrtmEval) energyNorm(r int) float64 {
	d, f := &e.d, e.f
	rf := float64(r)
	pf, _ := e.scal.Perf(rf) // Perf and Power fail only for r < 1
	pw, _ := e.scal.Power(rf)
	serial := (1 - f) * pw / pf
	var parallelRatio float64
	switch d.Kind {
	case core.SymCMP:
		parallelRatio = math.Pow(rf, e.scal.Theta()*(e.scal.Alpha()-1))
	case core.AsymCMP:
		parallelRatio = 1
	case core.Het:
		parallelRatio = d.UCore.Phi / d.UCore.Mu
	}
	return serial + f*parallelRatio
}
