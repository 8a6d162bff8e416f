package blackscholes

import (
	"errors"
	"fmt"
	"math"
)

// Greeks are the first- and second-order sensitivities of the option
// value — the quantities a real pricing pipeline (the paper's motivating
// workload is throughput option pricing) computes alongside the price.
type Greeks struct {
	Delta float64 // dV/dS
	Gamma float64 // d²V/dS²
	Vega  float64 // dV/dsigma (per 1.0 of vol)
	Theta float64 // dV/dt (per year, holding expiry fixed)
	Rho   float64 // dV/dr (per 1.0 of rate)
}

// pdf is the standard normal density.
func pdf(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// AnalyticGreeks returns the closed-form Black-Scholes sensitivities.
func AnalyticGreeks(o Option) (Greeks, error) {
	if err := o.Validate(); err != nil {
		return Greeks{}, err
	}
	sqrtT := math.Sqrt(o.Time)
	d1 := (math.Log(o.Spot/o.Strike) + (o.Rate+0.5*o.Vol*o.Vol)*o.Time) / (o.Vol * sqrtT)
	d2 := d1 - o.Vol*sqrtT
	disc := math.Exp(-o.Rate * o.Time)
	g := Greeks{
		Gamma: pdf(d1) / (o.Spot * o.Vol * sqrtT),
		Vega:  o.Spot * pdf(d1) * sqrtT,
	}
	if o.Kind == Call {
		g.Delta = CNDF(d1)
		g.Theta = -o.Spot*pdf(d1)*o.Vol/(2*sqrtT) - o.Rate*o.Strike*disc*CNDF(d2)
		g.Rho = o.Strike * o.Time * disc * CNDF(d2)
	} else {
		g.Delta = CNDF(d1) - 1
		g.Theta = -o.Spot*pdf(d1)*o.Vol/(2*sqrtT) + o.Rate*o.Strike*disc*CNDF(-d2)
		g.Rho = -o.Strike * o.Time * disc * CNDF(-d2)
	}
	return g, nil
}

// NumericalGreeks estimates the sensitivities by central finite
// differences of the closed-form price — an independent cross-check of
// AnalyticGreeks used by the test suite.
func NumericalGreeks(o Option) (Greeks, error) {
	if err := o.Validate(); err != nil {
		return Greeks{}, err
	}
	var g Greeks
	// Delta and Gamma in S.
	hS := o.Spot * 1e-4
	up, dn := o, o
	up.Spot += hS
	dn.Spot -= hS
	vu, err := Price(up)
	if err != nil {
		return Greeks{}, err
	}
	vd, err := Price(dn)
	if err != nil {
		return Greeks{}, err
	}
	v0, err := Price(o)
	if err != nil {
		return Greeks{}, err
	}
	g.Delta = (vu - vd) / (2 * hS)
	g.Gamma = (vu - 2*v0 + vd) / (hS * hS)

	// Vega.
	hV := 1e-5
	up, dn = o, o
	up.Vol += hV
	dn.Vol -= hV
	vu, err = Price(up)
	if err != nil {
		return Greeks{}, err
	}
	vd, err = Price(dn)
	if err != nil {
		return Greeks{}, err
	}
	g.Vega = (vu - vd) / (2 * hV)

	// Theta: sensitivity to calendar time passing = -dV/dT.
	hT := math.Min(1e-5, o.Time/4)
	up, dn = o, o
	up.Time += hT
	dn.Time -= hT
	vu, err = Price(up)
	if err != nil {
		return Greeks{}, err
	}
	vd, err = Price(dn)
	if err != nil {
		return Greeks{}, err
	}
	g.Theta = -(vu - vd) / (2 * hT)

	// Rho.
	hR := 1e-6
	up, dn = o, o
	up.Rate += hR
	dn.Rate -= hR
	vu, err = Price(up)
	if err != nil {
		return Greeks{}, err
	}
	vd, err = Price(dn)
	if err != nil {
		return Greeks{}, err
	}
	g.Rho = (vu - vd) / (2 * hR)
	return g, nil
}

// ErrNoConvergence is returned when the implied-volatility solver fails.
var ErrNoConvergence = errors.New("blackscholes: implied volatility did not converge")

// ImpliedVol solves for the volatility that reprices the option to
// target using Newton's method on vega with a bisection fallback. The
// target must lie inside the no-arbitrage band.
func ImpliedVol(o Option, target float64) (float64, error) {
	probe := o
	probe.Vol = 1 // any valid value; Validate checks the rest
	if err := probe.Validate(); err != nil {
		return 0, err
	}
	lower := IntrinsicLowerBound(o)
	var upper float64
	if o.Kind == Call {
		upper = o.Spot
	} else {
		upper = o.Strike * math.Exp(-o.Rate*o.Time)
	}
	if target < lower-1e-12 || target > upper+1e-12 {
		return 0, fmt.Errorf("blackscholes: target %g outside no-arbitrage band [%g, %g]",
			target, lower, upper)
	}
	// Newton iterations with clamping.
	vol := 0.3
	lo, hi := 1e-6, 8.0
	for iter := 0; iter < 100; iter++ {
		trial := o
		trial.Vol = vol
		price, err := Price(trial)
		if err != nil {
			return 0, err
		}
		diff := price - target
		if math.Abs(diff) < 1e-12*(1+target) {
			return vol, nil
		}
		if diff > 0 {
			hi = math.Min(hi, vol)
		} else {
			lo = math.Max(lo, vol)
		}
		g, err := AnalyticGreeks(trial)
		if err != nil {
			return 0, err
		}
		next := vol
		if g.Vega > 1e-12 {
			next = vol - diff/g.Vega
		}
		if next <= lo || next >= hi || math.IsNaN(next) {
			next = (lo + hi) / 2 // bisection fallback
		}
		if math.Abs(next-vol) < 1e-14 {
			return next, nil
		}
		vol = next
	}
	return 0, ErrNoConvergence
}
