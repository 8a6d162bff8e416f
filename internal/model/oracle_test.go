package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
)

// optimizeSweep is the grid oracle for the r-scanning backends: every
// integer r in [1, maxR] through Evaluate, argmax of speedup (or argmin
// of energy), ties broken toward smaller r exactly as core.OptimizeGrid
// breaks them. Infeasible r values are skipped; if every r fails,
// core.ErrInfeasible wraps the last cause. Optimize and OptimizeEnergy
// must reproduce it bit for bit, errors included.
func optimizeSweep(maxR int, energy bool, eval func(r int) (core.Point, error)) (core.Point, error) {
	if maxR < 1 {
		maxR = 16
	}
	var (
		best    core.Point
		found   bool
		lastErr error
	)
	for r := 1; r <= maxR; r++ {
		p, err := eval(r)
		if err != nil {
			lastErr = err
			continue
		}
		better := !found
		if !better {
			if energy {
				better = p.EnergyNorm < best.EnergyNorm
			} else {
				better = p.Speedup > best.Speedup
			}
		}
		if better {
			best, found = p, true
		}
	}
	if !found {
		return core.Point{}, fmt.Errorf("%w: %v", core.ErrInfeasible, lastErr)
	}
	return best, nil
}

// scanningBackends are the backends whose optimizers scan r; chung's
// analytic optimizer has its own grid oracle in package core.
var scanningBackends = []string{"multiamdahl", "multiamdahl-thermal", "sqrtm"}

// backendConfig is one parameterization of every backend; chung takes
// only alpha and maxR.
type backendConfig struct {
	alpha   float64
	maxR    int
	segs    []Segment
	theta   float64
	thetaJA float64
}

// params returns the raw parameter document for backend name.
func (c backendConfig) params(name string) (json.RawMessage, error) {
	switch name {
	case "chung":
		return nil, nil
	case "multiamdahl":
		return json.Marshal(maParams{Segments: c.segs})
	case "multiamdahl-thermal":
		return json.Marshal(thermalParams{ThetaJA: c.thetaJA, Segments: c.segs})
	case "sqrtm":
		return json.Marshal(sqrtmParams{Theta: c.theta})
	}
	return nil, fmt.Errorf("no params for %q", name)
}

// oracleInput is one Optimize call.
type oracleInput struct {
	d core.Design
	f float64
	b bounds.Budgets
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// randomConfig draws a backend configuration covering the parameter
// space the oracle test must reach: 1–4 segments with random µ/φ (some
// left to default, some with a zero share), θ and α at their named
// values or random, maxR 1–40, and thermal caps from slack to binding.
func randomConfig(rng *rand.Rand) backendConfig {
	c := backendConfig{
		alpha:   []float64{0, 1, 1.75, 2.25, 3}[rng.Intn(5)],
		maxR:    1 + rng.Intn(40),
		theta:   []float64{0.5, 0.3, 0.75, 1, 0.05 + 0.95*rng.Float64()}[rng.Intn(5)],
		thetaJA: []float64{0, 1e-9, logUniform(rng, 1e-3, 20)}[rng.Intn(3)],
	}
	n := 1 + rng.Intn(4)
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		if n > 1 && rng.Intn(6) == 0 {
			continue // a zero-share segment
		}
		weights[i] = rng.Float64() + 0.01
		total += weights[i]
	}
	if total == 0 {
		weights[0], total = 1, 1
	}
	for _, w := range weights {
		s := Segment{Share: w / total}
		if rng.Intn(4) != 0 {
			s.Mu = logUniform(rng, 0.05, 50)
		}
		if rng.Intn(4) != 0 {
			s.Phi = logUniform(rng, 0.01, 10)
		}
		c.segs = append(c.segs, s)
	}
	return c
}

// randomInput draws an Optimize input: every design kind (bandwidth
// exemption included), f at 0, 1, 1−1e-9 or random, and budgets that
// are mostly valid but include zero, negative, NaN and +Inf values.
func randomInput(rng *rand.Rand) oracleInput {
	in := oracleInput{
		f: []float64{0, 1, 1 - 1e-9, rng.Float64(), rng.Float64()}[rng.Intn(5)],
		b: bounds.Budgets{
			Area:      oddBudget(rng, 0.5, 512),
			Power:     oddBudget(rng, 0.3, 256),
			Bandwidth: oddBudget(rng, 0.3, 128),
		},
	}
	switch rng.Intn(3) {
	case 0:
		in.d = core.Design{Kind: core.SymCMP, Label: "sym"}
	case 1:
		in.d = core.Design{Kind: core.AsymCMP, Label: "asym"}
	default:
		in.d = core.Design{Kind: core.Het, Label: "het", UCore: bounds.UCore{
			Mu: logUniform(rng, 0.1, 100), Phi: logUniform(rng, 0.005, 5),
		}}
	}
	in.d.ExemptBandwidth = rng.Intn(4) == 0
	return in
}

// oddBudget is usually a log-uniform budget in [lo, hi], and otherwise
// one of the values validation and the serial caps must handle exactly.
func oddBudget(rng *rand.Rand, lo, hi float64) float64 {
	switch rng.Intn(24) {
	case 0:
		return 0
	case 1:
		return -1 - rng.Float64()
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return 1 // r = 1 sits exactly on the serial power and bandwidth bounds
	case 5:
		return float64(1 + rng.Intn(40)) // integer area, and B² = r boundaries
	}
	return logUniform(rng, lo, hi)
}

// samePoint compares points field by field, floats by their bits.
func samePoint(a, b core.Point) bool {
	return a.Design == b.Design && a.R == b.R && a.Limit == b.Limit &&
		math.Float64bits(a.F) == math.Float64bits(b.F) &&
		math.Float64bits(a.N) == math.Float64bits(b.N) &&
		math.Float64bits(a.Speedup) == math.Float64bits(b.Speedup) &&
		math.Float64bits(a.EnergyNorm) == math.Float64bits(b.EnergyNorm)
}

// checkAgainstGrid compares m's Optimize and OptimizeEnergy on one input
// with the grid oracle over m's own Evaluate.
func checkAgainstGrid(t *testing.T, name string, m Model, in oracleInput) {
	t.Helper()
	for _, energy := range []bool{false, true} {
		opt := m.Optimize
		if energy {
			opt = m.OptimizeEnergy
		}
		got, gerr := opt(in.d, in.f, in.b)
		want, werr := optimizeSweep(m.Space().MaxR, energy, func(r int) (core.Point, error) {
			return m.Evaluate(in.d, in.f, in.b, r)
		})
		if (gerr == nil) != (werr == nil) ||
			(gerr != nil && (gerr.Error() != werr.Error() ||
				errors.Is(gerr, core.ErrInfeasible) != errors.Is(werr, core.ErrInfeasible))) {
			t.Fatalf("%s energy=%v %+v f=%v %+v maxR=%d:\n got err %v\nwant err %v",
				name, energy, in.d, in.f, in.b, m.Space().MaxR, gerr, werr)
		}
		if gerr == nil && !samePoint(got, want) {
			t.Fatalf("%s energy=%v %+v f=%v %+v maxR=%d:\n got %+v\nwant %+v",
				name, energy, in.d, in.f, in.b, m.Space().MaxR, got, want)
		}
	}
}

// TestOptimizeMatchesGridOracle is the correctness gate of the r-scan:
// over 100k seeded random inputs, every scanning backend's Optimize and
// OptimizeEnergy equal the grid oracle bit for bit, infeasibility
// errors included.
func TestOptimizeMatchesGridOracle(t *testing.T) {
	const configs, perConfig = 5000, 20
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < configs; i++ {
		c := randomConfig(rng)
		var models [3]Model
		for j, name := range scanningBackends {
			raw, err := c.params(name)
			if err != nil {
				t.Fatal(err)
			}
			if models[j], _, err = New(name, c.alpha, c.maxR, raw); err != nil {
				t.Fatalf("%s %+v: %v", name, c, err)
			}
		}
		for k := 0; k < perConfig; k++ {
			in := randomInput(rng)
			for j, name := range scanningBackends {
				checkAgainstGrid(t, name, models[j], in)
			}
		}
	}
}

// FuzzOptimizeMatchesGrid explores the same equivalence from arbitrary
// configurations and inputs, including ones New rejects.
func FuzzOptimizeMatchesGrid(f *testing.F) {
	f.Add(uint8(1), 0.7, 4.0, 0.5, 0.5, 2.0, 0.5, uint8(0), 0.05, uint8(16), uint8(2), 0.75, 0.5, false, 0.9, 64.0, 32.0, 16.0)
	f.Add(uint8(3), 0.25, 0.5, 0.25, 8.0, 0.1, 0.3, uint8(3), 5.0, uint8(40), uint8(0), 1.0, 1.0, true, 1-1e-9, 256.0, 1.0, 1.0)
	f.Add(uint8(0), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, uint8(4), 0.0, uint8(1), uint8(1), 1.0, 1.0, false, 0.0, 2.0, 0.5, math.Inf(1))
	f.Fuzz(func(t *testing.T, nseg uint8, share, mu, phi, mu2, phi2, theta float64, alphaSel uint8, thetaJA float64,
		maxR, kind uint8, umu, uphi float64, exempt bool, frac, area, power, bw float64) {
		c := backendConfig{
			alpha:   []float64{0, 1, 1.75, 2.25, 3}[alphaSel%5],
			maxR:    1 + int(maxR%40),
			theta:   theta,
			thetaJA: thetaJA,
			segs:    []Segment{{Share: share, Mu: mu, Phi: phi}},
		}
		if n := int(nseg % 4); n > 0 {
			for i := 0; i < n; i++ {
				c.segs = append(c.segs, Segment{Share: (1 - share) / float64(n), Mu: mu2, Phi: phi2})
			}
		}
		in := oracleInput{
			d: core.Design{Kind: core.ChipKind(kind % 4), UCore: bounds.UCore{Mu: umu, Phi: uphi}, ExemptBandwidth: exempt},
			f: frac,
			b: bounds.Budgets{Area: area, Power: power, Bandwidth: bw},
		}
		for _, name := range scanningBackends {
			raw, err := c.params(name)
			if err != nil {
				continue // NaN or ±Inf parameters have no JSON spelling
			}
			m, _, err := New(name, c.alpha, c.maxR, raw)
			if err != nil {
				continue
			}
			checkAgainstGrid(t, name, m, in)
		}
	})
}
