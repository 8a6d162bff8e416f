package model

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/pollack"
)

var testDesigns = []core.Design{
	{Kind: core.SymCMP, Label: "(0) SymCMP"},
	{Kind: core.AsymCMP, Label: "(1) AsymCMP"},
	{Kind: core.Het, Label: "(2) GPU", UCore: bounds.UCore{Mu: 0.75, Phi: 0.5}},
	{Kind: core.Het, Label: "(6) ASIC", UCore: bounds.UCore{Mu: 40, Phi: 0.01}, ExemptBandwidth: true},
}

var testBudgets = []bounds.Budgets{
	{Area: 64, Power: 32, Bandwidth: 16},
	{Area: 128, Power: 24, Bandwidth: 8},
	{Area: 32, Power: 128, Bandwidth: 4},
	{Area: 256, Power: 96, Bandwidth: 64},
}

var testFractions = []float64{0, 0.1, 0.5, 0.9, 0.975, 0.999, 1}

func TestRegistryOrderAndCanonical(t *testing.T) {
	want := []string{"chung", "multiamdahl", "multiamdahl-thermal", "sqrtm"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for spelling, canon := range map[string]string{
		"": "chung", "chung": "chung", "CHUNG": "chung", "  Chung ": "chung",
		"MultiAmdahl": "multiamdahl", "SQRTM": "sqrtm",
	} {
		got, err := Canonical(spelling)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", spelling, err)
		}
		if got != canon {
			t.Errorf("Canonical(%q) = %q, want %q", spelling, got, canon)
		}
	}
	if _, err := Canonical("no-such-model"); err == nil {
		t.Fatal("Canonical accepted an unknown model")
	}
	infos := Infos()
	if len(infos) != 4 || !infos[0].Default || infos[1].Default {
		t.Fatalf("Infos() default flags wrong: %+v", infos)
	}
}

func TestChungBackendMatchesEvaluatorExactly(t *testing.T) {
	m, canon, err := New("chung", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if canon != nil {
		t.Fatalf("chung canonical params = %s, want nil", canon)
	}
	ev := core.NewEvaluator()
	for _, d := range testDesigns {
		for _, b := range testBudgets {
			for _, f := range testFractions {
				want, werr := ev.Optimize(d, f, b)
				got, gerr := m.Optimize(d, f, b)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s f=%v %+v: err mismatch %v vs %v", d.Label, f, b, werr, gerr)
				}
				if werr == nil && got != want {
					t.Fatalf("%s f=%v %+v: %+v != %+v", d.Label, f, b, got, want)
				}
			}
		}
	}
}

// TestMultiAmdahlSingleSegmentReducesToAmdahl pins the ISSUE property:
// one segment with unit multipliers is the single-f Amdahl model within
// 1e-12, point by point across kinds, budgets, fractions, and r.
func TestMultiAmdahlSingleSegmentReducesToAmdahl(t *testing.T) {
	m, _, err := New("multiamdahl", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator()
	for _, d := range testDesigns {
		for _, b := range testBudgets {
			for _, f := range testFractions {
				for r := 1; r <= 16; r++ {
					want, werr := ev.Evaluate(d, f, b, r)
					got, gerr := m.Evaluate(d, f, b, r)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s f=%v r=%d %+v: err mismatch %v vs %v", d.Label, f, r, b, werr, gerr)
					}
					if werr != nil {
						continue
					}
					if !close12(got.Speedup, want.Speedup) || !close12(got.EnergyNorm, want.EnergyNorm) || !close12(got.N, want.N) {
						t.Fatalf("%s f=%v r=%d %+v:\n got %+v\nwant %+v", d.Label, f, r, b, got, want)
					}
					if got.Limit != want.Limit {
						t.Fatalf("%s f=%v r=%d %+v: limit %v != %v", d.Label, f, r, b, got.Limit, want.Limit)
					}
				}
			}
		}
	}
}

// TestMultiAmdahlLagrangeBeatsNaiveSplit checks the allocation is doing
// work: with two asymmetric segments the Lagrange split must weakly beat
// an equal-area split, and uneven accelerators must shift speedup.
func TestMultiAmdahlLagrangeBeatsNaiveSplit(t *testing.T) {
	params := json.RawMessage(`{"segments":[{"share":0.8,"mu":4},{"share":0.2,"mu":0.5,"phi":0.25}]}`)
	m, _, err := New("multiamdahl", 0, 0, params)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Design{Kind: core.Het, Label: "het", UCore: bounds.UCore{Mu: 2, Phi: 0.5}}
	b := bounds.Budgets{Area: 64, Power: 1e6, Bandwidth: 1e6} // area-limited on purpose
	f, r := 0.95, 4
	got, err := m.Evaluate(d, f, b, r)
	if err != nil {
		t.Fatal(err)
	}
	// Naive equal split of the parallel area across the two segments.
	aPar := b.Area - float64(r)
	p := math.Sqrt(float64(r))
	naiveTime := (1-f)/p +
		(f*0.8)/(d.UCore.Mu*4*(aPar/2)) +
		(f*0.2)/(d.UCore.Mu*0.5*(aPar/2))
	naive := 1 / naiveTime
	if got.Speedup < naive {
		t.Fatalf("Lagrange allocation (%v) worse than equal split (%v)", got.Speedup, naive)
	}
	if got.Limit != bounds.AreaLimited {
		t.Fatalf("limit = %v, want area-limited", got.Limit)
	}
}

// TestSqrtmDefaultThetaMatchesChungExactly pins the equivalence path:
// at theta = 1/2 the generalized law is the baseline bit for bit.
func TestSqrtmDefaultThetaMatchesChungExactly(t *testing.T) {
	m, canon, err := New("sqrtm", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != `{"theta":0.5}` {
		t.Fatalf("canonical params = %s", canon)
	}
	ev := core.NewEvaluator()
	for _, d := range testDesigns {
		for _, b := range testBudgets {
			for _, f := range testFractions {
				for r := 1; r <= 16; r++ {
					want, werr := ev.Evaluate(d, f, b, r)
					got, gerr := m.Evaluate(d, f, b, r)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s f=%v r=%d %+v: err mismatch %v vs %v", d.Label, f, r, b, werr, gerr)
					}
					if werr == nil && got != want {
						t.Fatalf("%s f=%v r=%d %+v:\n got %+v\nwant %+v", d.Label, f, r, b, got, want)
					}
				}
				want, werr := ev.Optimize(d, f, b)
				got, gerr := m.Optimize(d, f, b)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("optimize %s f=%v %+v: err mismatch %v vs %v", d.Label, f, b, werr, gerr)
				}
				if werr == nil && got != want {
					t.Fatalf("optimize %s f=%v %+v: %+v != %+v", d.Label, f, b, got, want)
				}
			}
		}
	}
}

// TestSqrtmMatchesPollackAtUnitCore pins the second ISSUE property: at
// m = 1 (a one-BCE core) r^theta = 1 for every theta, so any exponent
// agrees with Pollack's rule exactly.
func TestSqrtmMatchesPollackAtUnitCore(t *testing.T) {
	base, _, err := New("sqrtm", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0.25, 0.4, 0.6, 0.8, 1} {
		params, _ := json.Marshal(sqrtmParams{Theta: theta})
		m, _, err := New("sqrtm", 0, 0, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range testDesigns {
			for _, f := range testFractions {
				b := testBudgets[0]
				want, werr := base.Evaluate(d, f, b, 1)
				got, gerr := m.Evaluate(d, f, b, 1)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("theta=%v %s f=%v: err mismatch %v vs %v", theta, d.Label, f, werr, gerr)
				}
				if werr == nil && got != want {
					t.Fatalf("theta=%v %s f=%v: %+v != %+v", theta, d.Label, f, got, want)
				}
			}
		}
	}
	if _, _, err := New("sqrtm", 0, 0, json.RawMessage(`{"theta":1.5}`)); err == nil {
		t.Fatal("accepted theta > 1")
	}
}

// TestSqrtmThetaChangesResults guards against the exponent silently not
// being threaded: a lower theta must reduce serial performance.
func TestSqrtmThetaChangesResults(t *testing.T) {
	lo, _, err := New("sqrtm", 0, 0, json.RawMessage(`{"theta":0.3}`))
	if err != nil {
		t.Fatal(err)
	}
	hi, _, err := New("sqrtm", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Design{Kind: core.AsymCMP, Label: "asym"}
	b := testBudgets[0]
	pLo, err := lo.Evaluate(d, 0, b, 16)
	if err != nil {
		t.Fatal(err)
	}
	pHi, err := hi.Evaluate(d, 0, b, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !(pLo.Speedup < pHi.Speedup) {
		t.Fatalf("theta=0.3 speedup %v not below theta=0.5 speedup %v", pLo.Speedup, pHi.Speedup)
	}
}

func TestThermalGenerousCapMatchesMultiAmdahl(t *testing.T) {
	th, _, err := New("multiamdahl-thermal", 0, 0, json.RawMessage(`{"thetaJA":1e-9}`))
	if err != nil {
		t.Fatal(err)
	}
	ma, _, err := New("multiamdahl", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testDesigns {
		for _, b := range testBudgets {
			for _, f := range testFractions {
				want, werr := ma.Optimize(d, f, b)
				got, gerr := th.Optimize(d, f, b)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s f=%v %+v: err mismatch %v vs %v", d.Label, f, b, werr, gerr)
				}
				if werr == nil && got != want {
					t.Fatalf("%s f=%v %+v: %+v != %+v", d.Label, f, b, got, want)
				}
			}
		}
	}
}

func TestThermalBindingCapReportsThermalLimited(t *testing.T) {
	// Cap power at (100-45)/5 = 11 BCE units, below the nominal 32:
	// designs the nominal budget leaves power-limited become
	// thermal-limited, and speedup must not exceed the uncapped model's.
	th, _, err := New("multiamdahl-thermal", 0, 0, json.RawMessage(`{"thetaJA":5}`))
	if err != nil {
		t.Fatal(err)
	}
	ma, _, err := New("multiamdahl", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Design{Kind: core.SymCMP, Label: "sym"}
	b := bounds.Budgets{Area: 256, Power: 32, Bandwidth: 1e6}
	f := 0.99
	got, err := th.Optimize(d, f, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Limit != bounds.ThermalLimited {
		t.Fatalf("limit = %v, want thermal-limited", got.Limit)
	}
	free, err := ma.Optimize(d, f, b)
	if err != nil {
		t.Fatal(err)
	}
	if !(got.Speedup < free.Speedup) {
		t.Fatalf("thermal cap did not reduce speedup: %v vs %v", got.Speedup, free.Speedup)
	}
	if bounds.ThermalLimited.String() != "thermal-limited" {
		t.Fatalf("ThermalLimited string = %q", bounds.ThermalLimited)
	}
}

// TestParamCanonicalization: omitted parameters and explicit defaults
// must produce identical canonical bytes, so the serving cache
// coalesces equivalent spellings.
func TestParamCanonicalization(t *testing.T) {
	cases := []struct{ name, sparse, explicit string }{
		{"multiamdahl", `{"segments":[{"share":1}]}`, `{"segments":[{"share":1,"mu":1,"phi":1}]}`},
		{"multiamdahl-thermal", `{}`, `{"tMaxC":100,"tAmbientC":45,"thetaJA":0.05,"segments":[{"share":1,"mu":1,"phi":1}]}`},
		{"sqrtm", `{}`, `{"theta":0.5}`},
	}
	for _, tc := range cases {
		_, a, err := New(tc.name, 0, 0, json.RawMessage(tc.sparse))
		if err != nil {
			t.Fatalf("%s sparse: %v", tc.name, err)
		}
		_, b, err := New(tc.name, 0, 0, json.RawMessage(tc.explicit))
		if err != nil {
			t.Fatalf("%s explicit: %v", tc.name, err)
		}
		_, c, err := New(tc.name, 0, 0, nil)
		if err != nil {
			t.Fatalf("%s nil: %v", tc.name, err)
		}
		if string(a) != string(b) || string(a) != string(c) {
			t.Fatalf("%s canonical params differ:\n sparse   %s\n explicit %s\n nil      %s", tc.name, a, b, c)
		}
	}
	if _, _, err := New("multiamdahl", 0, 0, json.RawMessage(`{"segments":[{"share":0.5}]}`)); err == nil {
		t.Fatal("accepted shares not summing to 1")
	}
	if _, _, err := New("sqrtm", 0, 0, json.RawMessage(`{"bogus":1}`)); err == nil {
		t.Fatal("accepted unknown param field")
	}
	if _, _, err := New("chung", 0, 0, json.RawMessage(`{"theta":0.5}`)); err == nil {
		t.Fatal("chung accepted params")
	}
	// Only whitespace may follow the parameter document, for every backend.
	for _, name := range Names() {
		for _, raw := range []string{`{}]`, `{}}`, `{} {}`, `{} x`} {
			if _, _, err := New(name, 0, 0, json.RawMessage(raw)); err == nil {
				t.Errorf("%s accepted trailing data in %s", name, raw)
			}
		}
		if _, _, err := New(name, 0, 0, json.RawMessage("{} \n\t")); err != nil {
			t.Errorf("%s rejected trailing whitespace: %v", name, err)
		}
	}
}

func TestOptimizeSweepInfeasibleWrapsErrInfeasible(t *testing.T) {
	m, _, err := New("multiamdahl", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Power budget below even r = 1's serial draw.
	_, err = m.Optimize(core.Design{Kind: core.AsymCMP}, 0.5, bounds.Budgets{Area: 64, Power: 0.5, Bandwidth: 16})
	if err == nil || !strings.Contains(err.Error(), "no feasible design point") {
		t.Fatalf("err = %v, want wrapped core.ErrInfeasible", err)
	}
}

func TestFactoryThreadsAlphaAndMaxR(t *testing.T) {
	mk := NewFactory("sqrtm", nil)
	m, err := mk(pollack.ScenarioSixAlpha, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp := m.Space(); sp.MaxR != 4 {
		t.Fatalf("MaxR = %d, want 4", sp.MaxR)
	}
	ev := core.Evaluator{MaxR: 4}
	if law, err := pollack.New(pollack.ScenarioSixAlpha); err == nil {
		ev.Law = law
	} else {
		t.Fatal(err)
	}
	d := core.Design{Kind: core.SymCMP}
	b := testBudgets[0]
	want, werr := ev.Optimize(d, 0.9, b)
	got, gerr := m.Optimize(d, 0.9, b)
	if werr != nil || gerr != nil {
		t.Fatalf("errs: %v %v", werr, gerr)
	}
	if got != want {
		t.Fatalf("alpha=2.25 maxR=4: %+v != %+v", got, want)
	}
}

func close12(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-12*math.Max(scale, 1)
}

// TestFactoryModelEqualsNew builds every backend at non-default params
// both ways — New, which decodes the params for one instance, and the
// factory Configure returns, which decoded them once — and requires the
// same instance at several (alpha, maxR), defaults included, plus the
// same canonical params.
func TestFactoryModelEqualsNew(t *testing.T) {
	params := map[string]json.RawMessage{
		"chung":               nil,
		"multiamdahl":         json.RawMessage(`{"segments":[{"share":0.7,"mu":1},{"share":0.3,"mu":4,"phi":0.5}]}`),
		"multiamdahl-thermal": json.RawMessage(`{"thetaJA":20,"segments":[{"share":0.5,"mu":1},{"share":0.5,"mu":0.25}]}`),
		"sqrtm":               json.RawMessage(`{"theta":0.4}`),
	}
	for _, name := range Names() {
		raw, ok := params[name]
		if !ok {
			t.Fatalf("no non-default params for backend %q", name)
		}
		mk, canon, err := Configure(name, raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range []struct {
			alpha float64
			maxR  int
		}{{0, 0}, {pollack.ScenarioSixAlpha, 4}, {1.5, 32}} {
			want, wantCanon, err := New(name, c.alpha, c.maxR, raw)
			if err != nil {
				t.Fatalf("%s %+v: New: %v", name, c, err)
			}
			got, err := mk(c.alpha, c.maxR)
			if err != nil {
				t.Fatalf("%s %+v: factory: %v", name, c, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: factory built %#v, New %#v", name, c, got, want)
			}
			if string(canon) != string(wantCanon) {
				t.Errorf("%s: canonical params %s, New gives %s", name, canon, wantCanon)
			}
		}
	}
}

// modelSink keeps TestModelNewAllocs' instances on the heap, as a
// caller's.
var modelSink Model

// TestModelNewAllocs pins what New costs per backend at its default
// params, as the projection layer calls it for every projection: the
// backend's own configuration and instance, and no wrapper around its
// factory. The race detector changes allocation counts, so it skips
// under -race.
func TestModelNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	want := map[string]float64{"chung": 1, "multiamdahl": 6, "multiamdahl-thermal": 6, "sqrtm": 5}
	for _, name := range Names() {
		got := testing.AllocsPerRun(100, func() {
			m, _, err := New(name, 0, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			modelSink = m
		})
		if got != want[name] {
			t.Errorf("New(%q) allocates %.0f times, want %.0f", name, got, want[name])
		}
	}
}
