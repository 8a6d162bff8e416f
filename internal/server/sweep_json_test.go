package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// shadowSweepResponse mirrors SweepResponse field-for-field but has no
// AppendJSON method, so json.Marshal takes the reflection path — the
// oracle the hand-written encoder must match byte for byte.
type shadowSweepResponse struct {
	Workload string           `json:"workload"`
	Node     string           `json:"node"`
	Design   string           `json:"design"`
	Axes     []AxisJSON       `json:"axes"`
	Points   []SweepPointJSON `json:"points"`
	Feasible int              `json:"feasible"`
	Best     *SweepPointJSON  `json:"best,omitempty"`
	Model    string           `json:"model,omitempty"`
}

// fuzzFloat draws floats across the regimes json formats differently:
// zero, plain 'f' range, and the tiny/huge magnitudes that switch the
// encoder to 'e' form with exponent cleanup.
func fuzzFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return rng.Float64() // (0,1): typical f and energy values
	case 2:
		return rng.Float64() * 1e3 // typical speedups and scales
	case 3:
		return math.Ldexp(rng.Float64(), -rng.Intn(80)) // down past 1e-6
	case 4:
		return math.Ldexp(1+rng.Float64(), rng.Intn(90)) // up past 1e21
	default:
		return -rng.Float64() * math.Ldexp(1, rng.Intn(40)-20)
	}
}

func fuzzPoint(rng *rand.Rand) SweepPointJSON {
	p := SweepPointJSON{
		F:              fuzzFloat(rng),
		AreaScale:      fuzzFloat(rng),
		PowerScale:     fuzzFloat(rng),
		BandwidthScale: fuzzFloat(rng),
	}
	if rng.Intn(2) == 0 {
		p.Valid = true
		p.R = rng.Intn(17) // 0 exercises omitempty
		p.Speedup = fuzzFloat(rng)
		p.EnergyNorm = fuzzFloat(rng)
		p.Limit = []string{"", "area", "power", "bandwidth", "serial"}[rng.Intn(5)]
	}
	return p
}

// TestSweepResponseAppendJSON fuzzes the reflection-free sweep encoder
// against json.Marshal: every response — including nil slices, empty
// points, omitempty zeros, non-ASCII strings, and floats spanning the
// 'f'/'e' format switch — must serialize to identical bytes, because
// cache entries and golden fixtures compare them.
func TestSweepResponseAppendJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	names := []string{"FFT-1024", "plain", "weird \"quoted\" <&> name", "unicode µφ 💡", "ctrl\x01\n"}
	for i := 0; i < 2000; i++ {
		r := SweepResponse{
			Workload: names[rng.Intn(len(names))],
			Node:     "40nm",
			Design:   names[rng.Intn(len(names))],
			Feasible: rng.Intn(100),
		}
		if rng.Intn(10) > 0 {
			r.Axes = make([]AxisJSON, rng.Intn(3))
			for a := range r.Axes {
				r.Axes[a].Name = names[rng.Intn(len(names))]
				if rng.Intn(8) > 0 {
					r.Axes[a].Values = make([]float64, rng.Intn(4))
					for v := range r.Axes[a].Values {
						r.Axes[a].Values[v] = fuzzFloat(rng)
					}
				}
			}
		}
		if rng.Intn(10) > 0 {
			r.Points = make([]SweepPointJSON, rng.Intn(8))
			for p := range r.Points {
				r.Points[p] = fuzzPoint(rng)
			}
		}
		if rng.Intn(2) == 0 {
			bp := fuzzPoint(rng)
			r.Best = &bp
		}
		if rng.Intn(3) == 0 {
			r.Model = []string{"multiamdahl", "sqrtm", names[rng.Intn(len(names))]}[rng.Intn(3)]
		}
		want, err := json.Marshal(shadowSweepResponse(r))
		if err != nil {
			t.Fatalf("case %d: oracle marshal: %v", i, err)
		}
		got, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatalf("case %d: AppendJSON: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: encoder mismatch\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestSweepResponseAppendJSONNonFinite checks non-finite floats error
// instead of emitting invalid JSON, matching json.Marshal's refusal.
func TestSweepResponseAppendJSONNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := SweepResponse{Points: []SweepPointJSON{{F: bad}}}
		if _, err := r.AppendJSON(nil); err == nil {
			t.Errorf("AppendJSON(%v) = nil error, want non-finite rejection", bad)
		}
	}
}

// TestAppenderResultExactSizeAllocs checks that the operation pipeline
// hands back an Appender's bytes at exactly their length, so a cached
// sweep holds no spare capacity, and that a repeat encode allocates only
// that result. The cells carry 16–17-digit coordinates, longer than a
// fixed per-cell size guess would cover.
func TestAppenderResultExactSizeAllocs(t *testing.T) {
	r := &SweepResponse{Workload: "FFT-1024", Node: "40nm", Design: "het-ASIC", Model: "sqrtm"}
	for i := 0; i < 200; i++ {
		r.Points = append(r.Points, SweepPointJSON{
			F: 0.5 + float64(i)/997, AreaScale: 1 / float64(i+3), PowerScale: math.Sqrt(float64(i + 2)),
			BandwidthScale: math.Pi / float64(i+7), Valid: true, R: i%16 + 1,
			Speedup: math.E * float64(i+11) / 3, Limit: "bandwidth", EnergyNorm: 1 / math.Sqrt(float64(i+5)),
		})
	}
	r.Feasible = len(r.Points)
	r.Best = &r.Points[len(r.Points)-1]
	prepare := newOp("exact", func(*struct{}, int) (string, func(context.Context) (*SweepResponse, error), error) {
		return "", func(context.Context) (*SweepResponse, error) { return r, nil }, nil
	})
	_, _, eval, err := prepare([]byte(`{}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(shadowSweepResponse(*r))
	if err != nil {
		t.Fatal(err)
	}
	if per := len(want) / len(r.Points); per <= 176 {
		t.Fatalf("cells average %d bytes; the test needs cells over 176", per)
	}
	for i := 0; i < 3; i++ {
		got, err := eval(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode %d differs from json.Marshal", i)
		}
		if cap(got) != len(got) {
			t.Fatalf("encode %d: cap %d, len %d", i, cap(got), len(got))
		}
	}
	if raceEnabled {
		return // allocation counts differ under -race
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := eval(context.Background()); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("repeat encode: %v allocs, want 1 (the result)", allocs)
	}
}
