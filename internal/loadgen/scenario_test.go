package loadgen

import (
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/calcm/heterosim/internal/server"
)

// valid returns a minimal passing scenario for the table tests to
// perturb.
func valid() Scenario {
	return Scenario{
		Name: "t", Requests: 10,
		Arrival: ArrivalSpec{Process: "closed"},
		Mix:     map[string]float64{"optimize": 1},
	}
}

func TestValidateRejects(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string // substring of the error message
	}{
		{"empty name", func(s *Scenario) { s.Name = "" }, "needs a name"},
		{"comma in name", func(s *Scenario) { s.Name = "a,b" }, "must not contain"},
		{"newline in name", func(s *Scenario) { s.Name = "a\nb" }, "must not contain"},
		{"zero requests", func(s *Scenario) { s.Requests = 0 }, "requests must be > 0"},
		{"negative requests", func(s *Scenario) { s.Requests = -5 }, "requests must be > 0"},
		{"absurd requests", func(s *Scenario) { s.Requests = 20_000_000 }, "10M cap"},
		{"negative duration", func(s *Scenario) { s.Duration = Duration(-time.Second) }, "duration must be >= 0"},
		{"unknown process", func(s *Scenario) { s.Arrival.Process = "uniform" }, "unknown arrival process"},
		{"empty process", func(s *Scenario) { s.Arrival.Process = "" }, "unknown arrival process"},
		{"closed with rate", func(s *Scenario) { s.Arrival.RateHz = 5 }, "rateHz applies to the poisson"},
		{"negative concurrency", func(s *Scenario) { s.Arrival.Concurrency = -1 }, "concurrency must be >= 0"},
		{"poisson without rate", func(s *Scenario) {
			s.Arrival = ArrivalSpec{Process: "poisson"}
		}, "needs rateHz > 0"},
		{"poisson negative rate", func(s *Scenario) {
			s.Arrival = ArrivalSpec{Process: "poisson", RateHz: -3}
		}, "needs rateHz > 0"},
		{"poisson NaN rate", func(s *Scenario) {
			s.Arrival = ArrivalSpec{Process: "poisson", RateHz: nan}
		}, "must be finite"},
		{"poisson with concurrency", func(s *Scenario) {
			s.Arrival = ArrivalSpec{Process: "poisson", RateHz: 10, Concurrency: 4}
		}, "concurrency applies to the closed"},
		{"empty mix", func(s *Scenario) { s.Mix = nil }, "at least one endpoint weight"},
		{"unknown endpoint", func(s *Scenario) { s.Mix = map[string]float64{"metrics": 1} }, "unknown endpoint"},
		{"NaN weight", func(s *Scenario) { s.Mix = map[string]float64{"optimize": nan} }, "must be finite"},
		{"negative weight", func(s *Scenario) { s.Mix = map[string]float64{"optimize": -1} }, "must be >= 0"},
		{"all-zero mix", func(s *Scenario) { s.Mix = map[string]float64{"optimize": 0, "sweep": 0} }, "at least one must be positive"},
		{"NaN hitRatio", func(s *Scenario) { s.HitRatio = nan }, "must be finite"},
		{"negative hitRatio", func(s *Scenario) { s.HitRatio = -0.1 }, "hitRatio must be in [0, 1)"},
		{"hitRatio one", func(s *Scenario) { s.HitRatio = 1 }, "hitRatio must be in [0, 1)"},
		{"negative keySpace", func(s *Scenario) { s.KeySpace = -2 }, "keySpace must be >= 0"},
		{"bad faults spec", func(s *Scenario) { s.Faults = "error=2.5" }, "faults:"},
		{"unknown deadline dist", func(s *Scenario) { s.Deadline.Dist = "pareto" }, "unknown deadline dist"},
		{"deadline min without dist", func(s *Scenario) { s.Deadline.Min = Duration(time.Second) }, "need dist fixed or uniform"},
		{"fixed deadline without min", func(s *Scenario) { s.Deadline.Dist = "fixed" }, "needs min > 0"},
		{"uniform deadline inverted", func(s *Scenario) {
			s.Deadline = DeadlineSpec{Dist: "uniform", Min: Duration(time.Second), Max: Duration(time.Millisecond)}
		}, "0 < min <= max"},
		{"negative retries", func(s *Scenario) { s.Retries = -1 }, "retries must be in [0, 10]"},
		{"huge retries", func(s *Scenario) { s.Retries = 100 }, "retries must be in [0, 10]"},
		{"tiny samples", func(s *Scenario) { s.Samples = 5 }, "samples must be in [10, 100000]"},
		{"huge samples", func(s *Scenario) { s.Samples = 1_000_000 }, "samples must be in [10, 100000]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := valid()
			tc.mut(&sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", sc)
			}
			var ee *server.Error
			if !errors.As(err, &ee) {
				t.Fatalf("error %v is not an *server.Error", err)
			}
			if ee.Status != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", ee.Status)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateDefaults(t *testing.T) {
	sc := valid()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 1 || sc.Arrival.Concurrency != 1 || sc.KeySpace != 16 || sc.Retries != 1 || sc.Samples != 200 {
		t.Errorf("defaults not filled: %+v", sc)
	}
	po := valid()
	po.Arrival = ArrivalSpec{Process: "poisson", RateHz: 100}
	if err := po.Validate(); err != nil {
		t.Fatal(err)
	}
	if po.Arrival.MaxOutstanding != 512 {
		t.Errorf("MaxOutstanding default = %d, want 512", po.Arrival.MaxOutstanding)
	}
}

func TestParseScenario(t *testing.T) {
	good := `{
		"name": "steady", "seed": 3, "requests": 100,
		"arrival": {"process": "poisson", "rateHz": 50.5},
		"mix": {"optimize": 2, "models": 1},
		"hitRatio": 0.25, "keySpace": 8,
		"deadline": {"dist": "uniform", "min": "5ms", "max": "50ms"},
		"retries": 2
	}`
	sc, err := ParseScenario([]byte(good))
	if err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if sc.Name != "steady" || sc.Arrival.RateHz != 50.5 ||
		time.Duration(sc.Deadline.Max) != 50*time.Millisecond {
		t.Errorf("parsed %+v", sc)
	}

	bad := []struct {
		name, body string
	}{
		{"unknown field", `{"name":"x","requests":1,"arrival":{"process":"closed"},"mix":{"optimize":1},"burst":true}`},
		{"bad duration string", `{"name":"x","requests":1,"duration":"fast","arrival":{"process":"closed"},"mix":{"optimize":1}}`},
		{"numeric duration", `{"name":"x","requests":1,"duration":250,"arrival":{"process":"closed"},"mix":{"optimize":1}}`},
		{"trailing garbage", `{"name":"x","requests":1,"arrival":{"process":"closed"},"mix":{"optimize":1}} extra`},
		{"not an object", `[1,2,3]`},
		{"unknown endpoint", `{"name":"x","requests":1,"arrival":{"process":"closed"},"mix":{"healthz":1}}`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseScenario([]byte(tc.body)); err == nil {
				t.Errorf("accepted %s", tc.body)
			}
		})
	}
}
