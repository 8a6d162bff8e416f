package pollack

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New(a); err == nil {
			t.Errorf("New(%v) should fail", a)
		}
	}
}

func TestDefaultAlpha(t *testing.T) {
	if got := Default().Alpha(); got != 1.75 {
		t.Errorf("Default alpha = %g, want 1.75", got)
	}
}

func TestPerfFollowsPollack(t *testing.T) {
	l := Default()
	cases := []struct{ r, want float64 }{
		{1, 1},
		{2, math.Sqrt2},
		{4, 2},
		{16, 4},
	}
	for _, c := range cases {
		got, err := l.Perf(c.r)
		if err != nil {
			t.Fatalf("Perf(%g): %v", c.r, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Perf(%g) = %g, want %g", c.r, got, c.want)
		}
	}
}

func TestPowerLaw(t *testing.T) {
	l := Default()
	// power(r) = r^(alpha/2); for r = 4, 4^0.875 = 3.3636...
	got, err := l.Power(4)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(4, 0.875)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Power(4) = %g, want %g", got, want)
	}
	// A BCE core consumes exactly 1.
	if p, _ := l.Power(1); p != 1 {
		t.Errorf("Power(1) = %g, want 1", p)
	}
}

func TestPowerOfPerfConsistent(t *testing.T) {
	l := Default()
	// power(r) must equal PowerOfPerf(Perf(r)).
	for _, r := range []float64{1, 2, 3.5, 8, 100} {
		p, _ := l.Perf(r)
		viaPerf, _ := l.PowerOfPerf(p)
		direct, _ := l.Power(r)
		if math.Abs(viaPerf-direct) > 1e-9*direct {
			t.Errorf("r=%g: PowerOfPerf(Perf)=%g != Power=%g", r, viaPerf, direct)
		}
	}
}

func TestMaxRForPowerInvertsPower(t *testing.T) {
	l := Default()
	for _, p := range []float64{1, 2, 10, 100} {
		r, err := l.MaxRForPower(p)
		if err != nil {
			t.Fatal(err)
		}
		back, _ := l.Power(r)
		if math.Abs(back-p) > 1e-9*p {
			t.Errorf("Power(MaxRForPower(%g)) = %g", p, back)
		}
	}
}

func TestEfficiencyDecreasesWithR(t *testing.T) {
	l := Default()
	prev := math.Inf(1)
	for _, r := range []float64{1, 2, 4, 8, 16} {
		e, err := l.Efficiency(r)
		if err != nil {
			t.Fatal(err)
		}
		if e >= prev {
			t.Errorf("Efficiency(%g) = %g, not decreasing (prev %g)", r, e, prev)
		}
		prev = e
	}
	// Efficiency(1) must be exactly 1 (the BCE is the reference).
	if e, _ := l.Efficiency(1); e != 1 {
		t.Errorf("Efficiency(1) = %g, want 1", e)
	}
}

func TestScenarioSixAlphaIsHungrier(t *testing.T) {
	base := Default()
	harsh, err := New(ScenarioSixAlpha)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{2, 4, 9, 16} {
		pb, _ := base.Power(r)
		ph, _ := harsh.Power(r)
		if ph <= pb {
			t.Errorf("alpha=2.25 power at r=%g (%g) should exceed alpha=1.75 (%g)", r, ph, pb)
		}
	}
}

func TestErrorsOnBadInputs(t *testing.T) {
	l := Default()
	if _, err := l.Perf(0); err == nil {
		t.Error("Perf(0) should fail")
	}
	if _, err := l.Power(-3); err == nil {
		t.Error("Power(-3) should fail")
	}
	if _, err := l.PowerOfPerf(0); err == nil {
		t.Error("PowerOfPerf(0) should fail")
	}
	if _, err := l.MaxRForPower(0); err == nil {
		t.Error("MaxRForPower(0) should fail")
	}
	if _, err := l.Efficiency(math.NaN()); err == nil {
		t.Error("Efficiency(NaN) should fail")
	}
}

// Property: Power is super-linear in Perf for alpha > 1 — doubling
// performance more than doubles power.
func TestPowerSuperLinear(t *testing.T) {
	l := Default()
	prop := func(raw float64) bool {
		r := 1 + math.Mod(math.Abs(raw), 100)
		p1, err1 := l.Perf(r)
		if err1 != nil {
			return false
		}
		w1, _ := l.PowerOfPerf(p1)
		w2, _ := l.PowerOfPerf(2 * p1)
		return w2 > 2*w1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: MaxRForPower is monotone in the budget.
func TestMaxRMonotone(t *testing.T) {
	l := Default()
	prop := func(raw float64) bool {
		p := 0.5 + math.Mod(math.Abs(raw), 1000)
		r1, err1 := l.MaxRForPower(p)
		r2, err2 := l.MaxRForPower(p * 1.5)
		return err1 == nil && err2 == nil && r2 > r1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestPowerTableExact holds the power table, shared for the paper's two
// exponents and built per Law for any other, to the direct computation
// bit for bit, and building a Law for a shared exponent to no
// allocation.
func TestPowerTableExact(t *testing.T) {
	for _, alpha := range []float64{DefaultAlpha, ScenarioSixAlpha, 1.3} {
		l, err := New(alpha)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1.0; r <= powTabSize; r++ {
			got, err := l.Power(r)
			if want := math.Pow(r, alpha/2); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("alpha %g: Power(%g) = %v, %v; want %v bit for bit", alpha, r, got, err, want)
			}
		}
	}
	for _, alpha := range []float64{DefaultAlpha, ScenarioSixAlpha} {
		if n := testing.AllocsPerRun(100, func() { New(alpha) }); n != 0 {
			t.Errorf("New(%g) allocates %v times, want 0", alpha, n)
		}
	}
}
