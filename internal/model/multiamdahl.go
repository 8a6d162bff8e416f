package model

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/calcm/heterosim/internal/amdahl"
	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/pollack"
)

// Segment is one program execution segment in the Multi-Amdahl model of
// Zidenberg, Keslassy & Weiser ("MultiAmdahl: How Should I Divide My
// Heterogeneous Chip?"). Share is the segment's share of the parallel
// fraction f (shares sum to 1); Mu and Phi scale the performance and
// active-power density of the accelerator fabric the segment runs on,
// relative to the design's baseline parallel fabric (the design's
// U-core for HET chips, plain BCEs for the CMPs).
type Segment struct {
	Share float64 `json:"share"`
	Mu    float64 `json:"mu"`
	Phi   float64 `json:"phi"`
}

// maParams configures the multiamdahl backend. The default single
// segment {share:1, mu:1, phi:1} reduces the model to the paper's
// single-f form.
type maParams struct {
	Segments []Segment `json:"segments"`
}

func defaultSegments() []Segment { return []Segment{{Share: 1, Mu: 1, Phi: 1}} }

// normalize fills per-segment defaults and validates the partition.
func (p *maParams) normalize() error {
	if len(p.Segments) == 0 {
		p.Segments = defaultSegments()
		return nil
	}
	if len(p.Segments) > maxSegments {
		return fmt.Errorf("model: at most %d segments, got %d", maxSegments, len(p.Segments))
	}
	sum := 0.0
	for i := range p.Segments {
		s := &p.Segments[i]
		if s.Mu == 0 {
			s.Mu = 1
		}
		if s.Phi == 0 {
			s.Phi = 1
		}
		if s.Share < 0 || math.IsNaN(s.Share) || math.IsInf(s.Share, 0) {
			return fmt.Errorf("model: segment %d share must be a finite non-negative number", i)
		}
		if s.Mu <= 0 || math.IsNaN(s.Mu) || math.IsInf(s.Mu, 0) {
			return fmt.Errorf("model: segment %d mu must be a positive finite number", i)
		}
		if s.Phi <= 0 || math.IsNaN(s.Phi) || math.IsInf(s.Phi, 0) {
			return fmt.Errorf("model: segment %d phi must be a positive finite number", i)
		}
		sum += s.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("model: segment shares must sum to 1, got %.12g", sum)
	}
	return nil
}

type multiAmdahlBackend struct{}

func (multiAmdahlBackend) Info() Info {
	return Info{
		Name: "multiamdahl",
		Description: "Multi-Amdahl (Zidenberg/Keslassy/Weiser): the parallel fraction splits " +
			"into segments, each on its own accelerator; parallel area is divided by the " +
			"closed-form Lagrange optimum a_i proportional to sqrt(t_i/mu_i).",
		Capabilities: []string{"optimize", "optimize-energy", "evaluate", "segments"},
		Params: []ParamSpec{{
			Name: "segments", Type: "array of {share, mu, phi}",
			Default: `[{"share":1,"mu":1,"phi":1}]`,
			Description: "Partition of the parallel fraction; shares sum to 1, mu/phi scale " +
				"each segment's accelerator perf/power density relative to the design's fabric.",
		}},
	}
}

func (multiAmdahlBackend) Configure(params json.RawMessage) (Factory, json.RawMessage, error) {
	var p maParams
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
		return multiAmdahlModel{law: law, maxR: maxR, segs: p.Segments}, nil
	}, canon, nil
}

// multiAmdahlModel evaluates a design with the parallel phase split
// across per-segment accelerators. The serial phase and the Table 1
// serial bounds are the paper's; the parallel area A_par is bounded by
// area, by parallel power Sum(phi_i·a_i) <= P, and by parallel
// bandwidth Sum(mu_i·a_i·bw) <= B, each evaluated at the Lagrange
// allocation shape a_i proportional to sqrt(t_i/mu_i).
type multiAmdahlModel struct {
	law  pollack.Law
	maxR int
	segs []Segment
}

func (m multiAmdahlModel) Name() string { return "multiamdahl" }

func (m multiAmdahlModel) Space() Space { return Space{MaxR: m.maxR, Kinds: allKinds()} }

func (m multiAmdahlModel) Evaluate(d core.Design, f float64, b bounds.Budgets, r int) (core.Point, error) {
	eb, err := evalInputs(d, f, b, r)
	if err != nil {
		return core.Point{}, err
	}
	if err := bounds.SerialFeasible(m.law, eb, float64(r)); err != nil {
		return core.Point{}, err
	}
	e := maEval{law: m.law, segs: m.segs, d: d, f: f, eb: eb}
	k := kernel{bound: e.bound, energyNorm: e.energyNorm}
	p, ok := k.at(d, f, r)
	if !ok {
		return core.Point{}, amdahl.ErrNoProgram
	}
	return p, nil
}

func (m multiAmdahlModel) Optimize(d core.Design, f float64, b bounds.Budgets) (core.Point, error) {
	return m.optimize(d, f, b, false)
}

func (m multiAmdahlModel) OptimizeEnergy(d core.Design, f float64, b bounds.Budgets) (core.Point, error) {
	return m.optimize(d, f, b, true)
}

func (m multiAmdahlModel) optimize(d core.Design, f float64, b bounds.Budgets, energy bool) (core.Point, error) {
	if p, ok := m.scan(d, f, b, energy); ok {
		return p, nil
	}
	_, err := m.Evaluate(d, f, b, gridMaxR(m.maxR))
	return core.Point{}, noFeasibleR(err)
}

// scan is the optimizer without its error path: it validates the inputs
// once, bounds r by the closed-form serial cap, and runs the per-r
// kernel over that range only. It reports false when no r is feasible.
func (m multiAmdahlModel) scan(d core.Design, f float64, b bounds.Budgets, energy bool) (core.Point, bool) {
	eb, err := evalInputs(d, f, b, 1)
	if err != nil || eb.Validate() != nil {
		return core.Point{}, false
	}
	e := maEval{law: m.law, segs: m.segs, d: d, f: f, eb: eb}
	k := kernel{bound: e.bound, energyNorm: e.energyNorm}
	return k.scan(d, f, bounds.SerialCap(m.law, eb, gridMaxR(m.maxR)), energy)
}

// maEval holds one kernel input: the validated design, fraction and
// effective budgets, plus frac, the scratch space for the segment
// allocation.
type maEval struct {
	law  pollack.Law
	segs []Segment
	d    core.Design
	f    float64
	eb   bounds.Budgets
	frac [maxSegments]float64
}

// fabric returns the sequential core's performance pf and power pwr at
// size r, and the baseline parallel fabric's densities per BCE of area:
// performance q, power w and bandwidth demand bw. The symmetric CMP runs
// parallel phases on its r-sized cores; the offload chip on BCEs; the
// heterogeneous chip on its U-cores.
func (e *maEval) fabric(rf float64) (pf, pwr, q, w, bw float64) {
	pf = math.Sqrt(rf)
	pwr, _ = e.law.Power(rf) // fails only for r < 1
	switch e.d.Kind {
	case core.SymCMP:
		q, w, bw = pf/rf, pwr/rf, 1/pf
	case core.AsymCMP:
		q, w, bw = 1, 1, 1
	case core.Het:
		q, w, bw = e.d.UCore.Mu, e.d.UCore.Phi, e.d.UCore.Mu
	}
	return pf, pwr, q, w, bw
}

// bound is kernel.bound: the usable resources, the speedup and the
// binding budget at r.
func (e *maEval) bound(r int) (n, speedup float64, lim bounds.Limit, ok bool) {
	rf := float64(r)
	pf, _, q, w, bw := e.fabric(rf)

	// The area available to the parallel phase: the whole chip for the
	// symmetric CMP (the serial core is one of the parallel cores); the
	// offload and heterogeneous chips spend r on a dark serial core first.
	areaCap := e.eb.Area
	if e.d.Kind != core.SymCMP {
		areaCap = e.eb.Area - rf
	}

	// Lagrange allocation shape over the active (non-zero share)
	// segments: minimizing Sum(t_i/(q·mu_i·a_i)) subject to
	// Sum(a_i) = A_par gives a_i proportional to sqrt(t_i/(q·mu_i)).
	// frac[i] is segment i's a_i / A_par. With f == 0 no parallel work
	// exists; budget attribution then uses the unit fabric.
	var (
		muBar  float64 // Sum frac_i·mu_i
		phiBar float64 // Sum frac_i·phi_i
	)
	if e.f > 0 {
		total := 0.0
		for i, s := range e.segs {
			if s.Share == 0 {
				continue
			}
			e.frac[i] = math.Sqrt(e.f * s.Share / (q * s.Mu))
			total += e.frac[i]
		}
		for i, s := range e.segs {
			if s.Share == 0 {
				continue
			}
			e.frac[i] /= total
			muBar += e.frac[i] * s.Mu
			phiBar += e.frac[i] * s.Phi
		}
	} else {
		muBar, phiBar = 1, 1
	}

	// Parallel-area bound under each budget, attributed with the same
	// tie preferences as bounds.Attribute (power beats bandwidth beats
	// area on equality against area; bandwidth must strictly beat power).
	aPar := areaCap
	lim = bounds.AreaLimited
	aPow := e.eb.Power / (w * phiBar)
	aBW := e.eb.Bandwidth / (bw * muBar)
	if aPow < aPar && aPow <= aBW {
		aPar, lim = aPow, bounds.PowerLimited
	} else if aBW < aPar && aBW < aPow {
		aPar, lim = aBW, bounds.BandwidthLimited
	}

	// Usable resources n mirrors the paper's accounting: the whole chip
	// for the symmetric CMP, serial core plus parallel fabric otherwise.
	if e.d.Kind == core.SymCMP {
		n = aPar
		if n < rf {
			n = rf
		}
		aPar = n
	} else {
		if e.f > 0 && aPar <= 0 {
			return 0, 0, 0, false
		}
		if aPar < 0 {
			aPar = 0
		}
		n = rf + aPar
	}

	// Speedup: serial time on the fast core plus each segment on its
	// allocated accelerator area.
	speedup = pf
	if e.f > 0 {
		parTime := 0.0
		for i, s := range e.segs {
			if s.Share == 0 {
				continue
			}
			parTime += (e.f * s.Share) / (q * s.Mu * (e.frac[i] * aPar))
		}
		speedup = 1 / ((1-e.f)/pf + parTime)
	}
	return n, speedup, lim, true
}

// energyNorm is kernel.energyNorm. It mirrors core.energyNorm: serial
// energy plus each segment's time · power at its own density ratio.
func (e *maEval) energyNorm(r int) float64 {
	pf, pwr, q, w, _ := e.fabric(float64(r))
	energy := (1 - e.f) * pwr / pf
	if e.f > 0 {
		for _, s := range e.segs {
			if s.Share == 0 {
				continue
			}
			energy += (e.f * s.Share) * (w * s.Phi) / (q * s.Mu)
		}
	}
	return energy
}
