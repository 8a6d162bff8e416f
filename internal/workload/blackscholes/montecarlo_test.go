package blackscholes

import (
	"math"
	"testing"
)

func TestMonteCarloConvergesToClosedForm(t *testing.T) {
	opts := []Option{
		{Call, 42, 40, 0.10, 0.20, 0.5},
		{Put, 42, 40, 0.10, 0.20, 0.5},
		{Call, 100, 120, 0.03, 0.45, 2},
		{Put, 80, 100, 0.05, 0.30, 1},
	}
	for _, o := range opts {
		want, err := Price(o)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := MonteCarloPrice(o, 400000, 7)
		if err != nil {
			t.Fatal(err)
		}
		// Within 5 standard errors (plus an absolute floor for tiny
		// prices).
		tol := 5*mc.StdError + 1e-3
		if math.Abs(mc.Price-want) > tol {
			t.Errorf("%+v: MC %g +- %g vs closed form %g", o, mc.Price, mc.StdError, want)
		}
	}
}

func TestMonteCarloErrorShrinksWithPaths(t *testing.T) {
	o := Option{Call, 100, 105, 0.05, 0.25, 1}
	small, err := MonteCarloPrice(o, 10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := MonteCarloPrice(o, 160000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 16x the paths -> ~4x smaller standard error.
	ratio := small.StdError / big.StdError
	if ratio < 2.5 || ratio > 6.5 {
		t.Errorf("stderr ratio = %g, want ~4 for 16x paths", ratio)
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	o := Option{Call, 100, 100, 0.05, 0.2, 1}
	a, err := MonteCarloPrice(o, 10000, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := MonteCarloPrice(o, 10000, 11)
	if a != b {
		t.Error("same seed must reproduce")
	}
	c, _ := MonteCarloPrice(o, 10000, 12)
	if a == c {
		t.Error("different seeds should differ")
	}
}

func TestMonteCarloValidation(t *testing.T) {
	bad := Option{Call, -1, 100, 0.05, 0.2, 1}
	if _, err := MonteCarloPrice(bad, 1000, 1); err == nil {
		t.Error("invalid option must fail")
	}
	good := Option{Call, 100, 100, 0.05, 0.2, 1}
	if _, err := MonteCarloPrice(good, 1, 1); err == nil {
		t.Error("too few paths must fail")
	}
}
