// Package pollack implements the sequential-core scaling laws used by the
// heterosim model: Pollack's rule relating single-thread performance to the
// silicon area invested in a core, and the super-linear power law relating
// sequential performance to power.
//
// Hill and Marty ("Amdahl's Law in the Multicore Era") adopt Pollack's
// observation that microarchitectural performance grows roughly with the
// square root of the transistors spent: perf_seq(r) = sqrt(r), where r is
// the core size in Base-Core-Equivalent (BCE) units. Chung et al. (MICRO
// 2010) add the power side: power_seq = perf^alpha with alpha estimated at
// 1.75 from Grochowski's "Energy per Instruction Trends in Intel
// Microprocessors"; Scenario 6 of the paper raises alpha to 2.25.
package pollack

import (
	"errors"
	"fmt"
	"math"
)

// DefaultAlpha is the performance-to-power exponent estimated in
// Grochowski et al. and used throughout the paper's baseline projections.
const DefaultAlpha = 1.75

// ScenarioSixAlpha is the pessimistic serial-power exponent explored in
// Section 6.2, Scenario 6.
const ScenarioSixAlpha = 2.25

// ErrBadResource indicates a non-positive core size r.
var ErrBadResource = errors.New("pollack: core size r must be positive")

// powTabSize covers the integer core sizes the serial bounds probe
// repeatedly (the paper sweeps r <= 16; 64 leaves slack for larger
// evaluator settings).
const powTabSize = 64

// Law bundles the sequential performance and power laws for one choice of
// the power exponent alpha. The zero value is not valid; use New.
type Law struct {
	alpha float64
	// powTab[i] = Pow(i+1, alpha/2), precomputed at New: Power is on the
	// per-candidate path of the analytic optimizer, and a general-exponent
	// Pow per feasibility probe dominated the optimize cost. Entries are
	// the exact Pow values, so table hits are bit-identical to the direct
	// computation. The table is never written after New, so Laws of the
	// same alpha may share it.
	powTab *[powTabSize]float64
}

// New returns a Law with the given performance-to-power exponent. alpha
// must be positive; the paper uses 1.75 (and 2.25 in Scenario 6).
func New(alpha float64) (Law, error) {
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return Law{}, fmt.Errorf("pollack: alpha must be a positive finite number, got %v", alpha)
	}
	switch alpha {
	case DefaultAlpha:
		return Law{alpha: alpha, powTab: defaultPowTab}, nil
	case ScenarioSixAlpha:
		return Law{alpha: alpha, powTab: scenarioSixPowTab}, nil
	}
	return Law{alpha: alpha, powTab: powTable(alpha)}, nil
}

// The paper's two exponents share one read-only table each, so building
// a Law for them (once per served request) costs no Pow and no
// allocation.
var (
	defaultPowTab     = powTable(DefaultAlpha)
	scenarioSixPowTab = powTable(ScenarioSixAlpha)
)

// powTable tabulates Pow(r, alpha/2) for r = 1..powTabSize.
func powTable(alpha float64) *[powTabSize]float64 {
	t := new([powTabSize]float64)
	for i := range t {
		t[i] = math.Pow(float64(i+1), alpha/2)
	}
	return t
}

// Default returns the paper's baseline law (alpha = 1.75).
func Default() Law {
	l, err := New(DefaultAlpha)
	if err != nil {
		panic(err) // unreachable: DefaultAlpha is valid
	}
	return l
}

// Alpha returns the performance-to-power exponent.
func (l Law) Alpha() float64 { return l.alpha }

// Perf returns the sequential performance of a core built from r BCE units
// of area, relative to a single BCE core: perf_seq(r) = sqrt(r).
func (l Law) Perf(r float64) (float64, error) {
	if r <= 0 || math.IsNaN(r) {
		return 0, ErrBadResource
	}
	return math.Sqrt(r), nil
}

// Power returns the active power of a core built from r BCE units,
// relative to the active power of a single BCE core:
// power_seq(r) = perf^alpha = r^(alpha/2).
func (l Law) Power(r float64) (float64, error) {
	if r <= 0 || math.IsNaN(r) {
		return 0, ErrBadResource
	}
	if l.powTab != nil {
		if i := int(r); float64(i) == r && i >= 1 && i <= powTabSize {
			return l.powTab[i-1], nil
		}
	}
	return math.Pow(r, l.alpha/2), nil
}

// PowerOfPerf returns the power consumed to reach sequential performance
// perf (relative units): power = perf^alpha.
func (l Law) PowerOfPerf(perf float64) (float64, error) {
	if perf <= 0 || math.IsNaN(perf) {
		return 0, errors.New("pollack: performance must be positive")
	}
	return math.Pow(perf, l.alpha), nil
}

// MaxRForPower returns the largest core size r whose active power fits in
// budget p (the serial power bound of Table 1: r^(alpha/2) <= P).
func (l Law) MaxRForPower(p float64) (float64, error) {
	if p <= 0 || math.IsNaN(p) {
		return 0, errors.New("pollack: power budget must be positive")
	}
	return math.Pow(p, 2/l.alpha), nil
}

// Efficiency returns sequential performance per unit power for a core of
// size r: perf/power = r^((1-alpha)/2). For alpha > 1 this decreases with
// r — bigger sequential cores are less energy-efficient, the crux of the
// dark-silicon argument.
func (l Law) Efficiency(r float64) (float64, error) {
	if r <= 0 || math.IsNaN(r) {
		return 0, ErrBadResource
	}
	return math.Pow(r, (1-l.alpha)/2), nil
}
