package model

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
)

// objective is one of a model's two optimizers.
type objective struct {
	name string
	opt  func(core.Design, float64, bounds.Budgets) (core.Point, error)
}

// objectives returns both optimizers of m.
func objectives(m Model) []objective {
	return []objective{{"Optimize", m.Optimize}, {"OptimizeEnergy", m.OptimizeEnergy}}
}

// allModels builds every registered backend under configuration c.
func allModels(t *testing.T, c backendConfig) []Model {
	t.Helper()
	var out []Model
	for _, name := range Names() {
		raw, err := c.params(name)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := New(name, c.alpha, c.maxR, raw)
		if err != nil {
			t.Fatalf("%s %+v: %v", name, c, err)
		}
		out = append(out, m)
	}
	return out
}

// validInput draws an input whose budgets and fraction all pass
// validation, with f < 1.
func validInput(rng *rand.Rand) oracleInput {
	in := randomInput(rng)
	in.f = rng.Float64() * (1 - 1e-9)
	in.b = bounds.Budgets{
		Area:      logUniform(rng, 0.5, 512),
		Power:     logUniform(rng, 0.3, 256),
		Bandwidth: logUniform(rng, 0.3, 128),
	}
	return in
}

// TestPropertyAmdahlBound checks Amdahl's bound for every backend and
// both objectives: no chip beats its own serial core running perfectly
// parallelizable work, so Speedup(f) <= Speedup(f=0, same r) / (1-f).
func TestPropertyAmdahlBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		c := randomConfig(rng)
		in := validInput(rng)
		for _, m := range allModels(t, c) {
			for _, o := range objectives(m) {
				p, err := o.opt(in.d, in.f, in.b)
				if err != nil {
					continue
				}
				serial, err := m.Evaluate(in.d, 0, in.b, p.R)
				if err != nil {
					t.Fatalf("%s %s: Evaluate(f=0, r=%d) of an optimum failed: %v", m.Name(), o.name, p.R, err)
				}
				if limit := serial.Speedup / (1 - in.f); p.Speedup > limit*(1+1e-12) {
					t.Fatalf("%s %s %+v f=%v %+v: speedup %v above Amdahl's bound %v",
						m.Name(), o.name, in.d, in.f, in.b, p.Speedup, limit)
				}
			}
		}
	}
}

// TestPropertyMonotoneInBudgets checks, for every backend, that raising
// any one budget never makes the optimum worse: Optimize's speedup never
// falls, OptimizeEnergy's energy never rises, and a feasible input stays
// feasible.
func TestPropertyMonotoneInBudgets(t *testing.T) {
	axes := []struct {
		name  string
		scale func(*bounds.Budgets, float64)
	}{
		{"area", func(b *bounds.Budgets, k float64) { b.Area *= k }},
		{"power", func(b *bounds.Budgets, k float64) { b.Power *= k }},
		{"bandwidth", func(b *bounds.Budgets, k float64) { b.Bandwidth *= k }},
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 1000; trial++ {
		c := randomConfig(rng)
		in := validInput(rng)
		k := []float64{1.01, 1.5, 2, 8}[rng.Intn(4)]
		for _, m := range allModels(t, c) {
			for _, o := range objectives(m) {
				base, err := o.opt(in.d, in.f, in.b)
				if err != nil {
					continue
				}
				for _, ax := range axes {
					b := in.b
					ax.scale(&b, k)
					got, err := o.opt(in.d, in.f, b)
					if err != nil {
						t.Fatalf("%s %s: %s ×%v made a feasible input infeasible: %v", m.Name(), o.name, ax.name, k, err)
					}
					worse := got.Speedup < base.Speedup
					if o.name == "OptimizeEnergy" {
						worse = got.EnergyNorm > base.EnergyNorm
					}
					if worse {
						t.Fatalf("%s %s %+v f=%v %+v: %s ×%v worsened the optimum:\n base %+v\n  got %+v",
							m.Name(), o.name, in.d, in.f, in.b, ax.name, k, base, got)
					}
				}
			}
		}
	}
}

// TestModelOptimizeZeroAllocs pins the alloc ceiling of the r-scanning
// optimizers: on a feasible input, Optimize and OptimizeEnergy allocate
// nothing for any design kind, with default and multi-segment
// parameters. Sweeps and Monte Carlo studies call them per cell or draw,
// so one allocation here multiplies by the grid size.
func TestModelOptimizeZeroAllocs(t *testing.T) {
	const threeSegments = `[{"share":0.6,"mu":4,"phi":0.5},{"share":0},{"share":0.4,"mu":0.5}]`
	configs := []struct{ name, params string }{
		{"multiamdahl", ``},
		{"multiamdahl", `{"segments":` + threeSegments + `}`},
		{"multiamdahl-thermal", ``},
		{"multiamdahl-thermal", `{"thetaJA":0.5,"segments":` + threeSegments + `}`},
		{"sqrtm", ``},
		{"sqrtm", `{"theta":0.3}`},
	}
	designs := map[string]core.Design{
		"sym":  {Kind: core.SymCMP},
		"asym": {Kind: core.AsymCMP},
		"het":  {Kind: core.Het, UCore: bounds.UCore{Mu: 10, Phi: 0.2}},
	}
	b := bounds.Budgets{Area: 64, Power: 48, Bandwidth: 16}
	for _, c := range configs {
		var raw json.RawMessage
		if c.params != "" {
			raw = json.RawMessage(c.params)
		}
		m, _, err := New(c.name, 0, 0, raw)
		if err != nil {
			t.Fatalf("%s %s: %v", c.name, c.params, err)
		}
		for kind, d := range designs {
			for _, o := range objectives(m) {
				if _, err := o.opt(d, 0.9, b); err != nil {
					t.Fatalf("%s %s %s %s: %v", c.name, c.params, kind, o.name, err)
				}
				if allocs := testing.AllocsPerRun(100, func() { _, _ = o.opt(d, 0.9, b) }); allocs != 0 {
					t.Errorf("%s %s %s: %s allocates %.0f allocs/op, want 0", c.name, c.params, kind, o.name, allocs)
				}
			}
		}
	}
}

// FuzzModelParams drives arbitrary parameter documents, or generated
// segment lists of any length, through New and then every backend's
// Evaluate, Optimize and OptimizeEnergy at arbitrary inputs (NaN, ±Inf
// and negative budgets, fractions and U-core parameters included).
// Nothing may panic; an optimum must lie in [1, maxR]; and a segment
// list over the 64-segment cap, which the per-r kernel's stack array
// relies on, must be rejected. NaN and ±Inf parameter values have no
// JSON spelling, so they reach New as invalid documents.
func FuzzModelParams(f *testing.F) {
	f.Add(`{"segments":[{"share":0.5,"mu":2},{"share":0.5,"phi":3}]}`, uint8(0), 0.5, 1.0, 1.0, 0.9, 64.0, 32.0, 16.0, uint8(2), uint8(16))
	f.Add(`{"theta":0.3,"tMaxC":90,"thetaJA":0.2}`, uint8(0), 0.5, 1.0, 1.0, 0.5, 16.0, 8.0, 4.0, uint8(0), uint8(0))
	f.Add(``, uint8(64), 0.5, 2.0, 0.5, 0.99, 256.0, 64.0, 32.0, uint8(1), uint8(40))
	f.Add(``, uint8(65), 0.5, 2.0, 0.5, 0.99, 256.0, 64.0, 32.0, uint8(2), uint8(40))
	f.Add(``, uint8(200), math.NaN(), math.Inf(1), -1.0, math.NaN(), math.Inf(1), -2.0, 0.0, uint8(3), uint8(7))
	f.Fuzz(func(t *testing.T, params string, nseg uint8, share, mu, phi, frac, area, power, bw float64, kind, maxR uint8) {
		raw := json.RawMessage(params)
		if nseg > 0 {
			raw = segmentList(int(nseg), share, mu, phi)
		}
		d := core.Design{Kind: core.ChipKind(kind % 4), UCore: bounds.UCore{Mu: mu, Phi: phi}}
		b := bounds.Budgets{Area: area, Power: power, Bandwidth: bw}
		for _, name := range Names() {
			m, _, err := New(name, 0, int(maxR%48), raw)
			if err == nil && int(nseg) > maxSegments && strings.HasPrefix(name, "multiamdahl") {
				t.Fatalf("%s accepted %d segments", name, nseg)
			}
			if err != nil {
				continue
			}
			top := m.Space().MaxR
			for r := 0; r <= top+1; r++ {
				_, _ = m.Evaluate(d, frac, b, r)
			}
			for _, o := range objectives(m) {
				if p, err := o.opt(d, frac, b); err == nil && (p.R < 1 || p.R > top) {
					t.Fatalf("%s %s: optimum r=%d outside [1, %d]", name, o.name, p.R, top)
				}
			}
		}
	})
}

// segmentList spells n segments: the first with the given share, µ and
// φ, the rest splitting the remaining share equally at unit µ and φ.
func segmentList(n int, share, mu, phi float64) json.RawMessage {
	num := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var sb strings.Builder
	sb.WriteString(`{"segments":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(`,{"share":` + num((1-share)/float64(n-1)) + `}`)
			continue
		}
		sb.WriteString(`{"share":` + num(share) + `,"mu":` + num(mu) + `,"phi":` + num(phi) + `}`)
	}
	sb.WriteString(`]}`)
	return json.RawMessage(sb.String())
}
