// Package loadgen is the load-generation harness for the serving stack:
// declarative traffic scenarios — an endpoint mix across every /v1
// operation, an open-loop Poisson or closed-loop arrival process, a
// target cache-hit ratio shaped through the request key space, a fault
// rate, and a deadline distribution — run against a server
// configuration (workers, cache size, inflight caps).
//
// Each scenario runs through internal/client against an in-process or
// live daemon with one seeded deterministic RNG, records a per-request
// CSV time series through pluggable recorders, and reduces to a Summary
// (p50/p99 latency, throughput, shed rate, deadline-miss rate, cache
// hit/coalesce ratios) that the CLI writes as JSON and CI checks.
//
// The harness follows the repo's determinism discipline: a scenario is
// a pure function of its seed. The request stream (endpoints, keys,
// deadlines, arrival offsets) replays bit-identically, and under the
// logical clock (see Clock) a sequential run's CSV output is
// byte-identical across invocations, which is what lets a short
// deterministic run serve as a tier-1 regression gate.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/calcm/heterosim/internal/faultinject"
	"github.com/calcm/heterosim/internal/server"
)

// KnownEndpoint reports whether name is a mixable endpoint.
func KnownEndpoint(name string) bool {
	_, ok := endpoints[name]
	return ok
}

// Duration is time.Duration with the JSON spelling used across the
// scenario format: a Go duration string ("250ms", "2s").
type Duration time.Duration

// MarshalJSON renders the Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a Go duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like %q: %w", "250ms", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// ArrivalSpec selects how requests enter the system.
//
// "closed" is the classic closed loop: Concurrency workers each issue
// the next request as soon as the previous response lands, so offered
// load adapts to server latency (throughput-limited, never overruns).
//
// "poisson" is an open loop: arrivals fire at exponentially distributed
// intervals at RateHz regardless of how the server is doing — the
// process that actually produces overload, shed, and queueing, because
// real users do not wait for each other.
type ArrivalSpec struct {
	Process string `json:"process"`

	// Concurrency is the closed-loop worker count (default 1). One
	// worker makes the run fully sequential and therefore byte-
	// deterministic under the logical clock.
	Concurrency int `json:"concurrency,omitempty"`

	// RateHz is the open-loop Poisson arrival rate (required > 0 for
	// process "poisson").
	RateHz float64 `json:"rateHz,omitempty"`

	// MaxOutstanding bounds concurrently in-flight open-loop requests
	// (default 512). The dispatcher blocks when the bound is reached,
	// which shows up as schedule slip, not as silent request drops.
	MaxOutstanding int `json:"maxOutstanding,omitempty"`
}

// DeadlineSpec draws a per-request client-side deadline. The zero value
// (or dist "none") issues requests without deadlines.
type DeadlineSpec struct {
	// Dist is "none" (or empty), "fixed" (every request gets Min), or
	// "uniform" (uniform in [Min, Max]).
	Dist string   `json:"dist,omitempty"`
	Min  Duration `json:"min,omitempty"`
	Max  Duration `json:"max,omitempty"`
}

// Scenario is one declarative traffic pattern. It is a pure description:
// running it requires a RunConfig (target, clock, recorders), and the
// request stream it generates is a deterministic function of Seed.
type Scenario struct {
	// Name labels CSV rows and summaries. Required; must stay clear of
	// CSV/JSON structural characters.
	Name string `json:"name"`

	// Seed drives every draw the scenario makes — endpoint choice, key
	// shaping, deadlines, Poisson interarrivals (default 1).
	Seed int64 `json:"seed,omitempty"`

	// Requests is the total number of requests to issue (required > 0;
	// Duration, when set, may stop the run earlier).
	Requests int `json:"requests"`

	// Duration, when positive, bounds the run wall-clock time; the run
	// stops at whichever of Requests/Duration comes first.
	Duration Duration `json:"duration,omitempty"`

	// Arrival selects the arrival process.
	Arrival ArrivalSpec `json:"arrival"`

	// Mix weights the endpoints (key: endpoint name, value: relative
	// weight >= 0). At least one weight must be positive.
	Mix map[string]float64 `json:"mix"`

	// HitRatio is the target cache-hit ratio in [0, 1): each request's
	// key is drawn from a small hot set with this probability and is
	// otherwise a fresh unique key (a guaranteed cold miss). The
	// realized hit ratio converges on the target once the hot set has
	// been warmed.
	HitRatio float64 `json:"hitRatio,omitempty"`

	// KeySpace is the hot-set size per endpoint (default 16). Smaller
	// sets warm faster; larger ones exercise more of the cache.
	KeySpace int `json:"keySpace,omitempty"`

	// Faults is an internal/faultinject spec (e.g.
	// "seed=7,error=0.05,latency=0.05:5ms") spliced in front of the
	// server on in-process runs. For live daemons set the equivalent
	// HETEROSIMD_FAULTS environment on the daemon instead.
	Faults string `json:"faults,omitempty"`

	// Deadline draws per-request client-side deadlines; a request whose
	// deadline expires counts as a deadline miss, as does a server 504.
	Deadline DeadlineSpec `json:"deadline,omitempty"`

	// Retries is the client's attempt budget per request (default 1:
	// no retries, so shed responses stay visible instead of being
	// retried away by the client).
	Retries int `json:"retries,omitempty"`

	// Samples is the Monte Carlo draw count for generated
	// /v1/sensitivity requests (default 200, server cap 100000). It is
	// the scenario's per-request cost knob: sensitivity evaluation
	// scales linearly in it, so overload scenarios raise it to make
	// individual evaluations long enough to contend for admission
	// slots instead of finishing between scheduler slices.
	Samples int `json:"samples,omitempty"`
}

// checkFinite rejects NaN and infinite rates — a NaN probability would
// silently disable every comparison it participates in.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return server.BadRequest("%s must be finite, got %v", name, v)
	}
	return nil
}

// Validate checks the scenario and fills defaults in place (seed,
// key-space size, closed-loop concurrency, retry budget). Errors carry
// HTTP-style statuses via *server.Error: every rejection is a 400 — the
// config is the client's input.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return server.BadRequest("scenario needs a name")
	}
	if strings.ContainsAny(s.Name, ",\"\n\r") {
		return server.BadRequest("scenario name %q must not contain commas, quotes, or newlines", s.Name)
	}
	if s.Requests <= 0 {
		return server.BadRequest("requests must be > 0, got %d", s.Requests)
	}
	if s.Requests > 10_000_000 {
		return server.BadRequest("requests %d exceeds the 10M cap; split the run", s.Requests)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Duration < 0 {
		return server.BadRequest("duration must be >= 0, got %v", time.Duration(s.Duration))
	}
	switch s.Arrival.Process {
	case "closed":
		if s.Arrival.Concurrency < 0 {
			return server.BadRequest("closed-loop concurrency must be >= 0, got %d", s.Arrival.Concurrency)
		}
		if s.Arrival.Concurrency == 0 {
			s.Arrival.Concurrency = 1
		}
		if s.Arrival.RateHz != 0 {
			return server.BadRequest("rateHz applies to the poisson process, not closed")
		}
	case "poisson":
		if err := checkFinite("rateHz", s.Arrival.RateHz); err != nil {
			return err
		}
		if s.Arrival.RateHz <= 0 {
			return server.BadRequest("poisson arrival needs rateHz > 0, got %v", s.Arrival.RateHz)
		}
		if s.Arrival.Concurrency != 0 {
			return server.BadRequest("concurrency applies to the closed process, not poisson")
		}
		if s.Arrival.MaxOutstanding < 0 {
			return server.BadRequest("maxOutstanding must be >= 0, got %d", s.Arrival.MaxOutstanding)
		}
		if s.Arrival.MaxOutstanding == 0 {
			s.Arrival.MaxOutstanding = 512
		}
	default:
		return server.BadRequest("unknown arrival process %q (want closed or poisson)", s.Arrival.Process)
	}
	if len(s.Mix) == 0 {
		return server.BadRequest("mix needs at least one endpoint weight")
	}
	total := 0.0
	for name, w := range s.Mix {
		if !KnownEndpoint(name) {
			known := make([]string, 0, len(endpoints))
			for e := range endpoints {
				known = append(known, e)
			}
			sort.Strings(known)
			return server.BadRequest("unknown endpoint %q in mix (want %s)", name, strings.Join(known, ", "))
		}
		if err := checkFinite("mix."+name, w); err != nil {
			return err
		}
		if w < 0 {
			return server.BadRequest("mix.%s must be >= 0, got %v", name, w)
		}
		total += w
	}
	if total <= 0 {
		return server.BadRequest("mix weights sum to %v; at least one must be positive", total)
	}
	if err := checkFinite("hitRatio", s.HitRatio); err != nil {
		return err
	}
	if s.HitRatio < 0 || s.HitRatio >= 1 {
		return server.BadRequest("hitRatio must be in [0, 1), got %v", s.HitRatio)
	}
	if s.KeySpace < 0 {
		return server.BadRequest("keySpace must be >= 0, got %d", s.KeySpace)
	}
	if s.KeySpace == 0 {
		s.KeySpace = 16
	}
	if s.Faults != "" {
		if _, err := faultinject.Parse(s.Faults); err != nil {
			return server.BadRequest("faults: %v", err)
		}
	}
	switch s.Deadline.Dist {
	case "", "none":
		if s.Deadline.Min != 0 || s.Deadline.Max != 0 {
			return server.BadRequest("deadline min/max need dist fixed or uniform")
		}
	case "fixed":
		if s.Deadline.Min <= 0 {
			return server.BadRequest("fixed deadline needs min > 0, got %v", time.Duration(s.Deadline.Min))
		}
		if s.Deadline.Max != 0 && s.Deadline.Max != s.Deadline.Min {
			return server.BadRequest("fixed deadline takes min only")
		}
	case "uniform":
		if s.Deadline.Min <= 0 || s.Deadline.Max < s.Deadline.Min {
			return server.BadRequest("uniform deadline needs 0 < min <= max, got [%v, %v]",
				time.Duration(s.Deadline.Min), time.Duration(s.Deadline.Max))
		}
	default:
		return server.BadRequest("unknown deadline dist %q (want none, fixed, uniform)", s.Deadline.Dist)
	}
	if s.Retries < 0 || s.Retries > 10 {
		return server.BadRequest("retries must be in [0, 10], got %d", s.Retries)
	}
	if s.Retries == 0 {
		s.Retries = 1
	}
	if s.Samples != 0 && (s.Samples < 10 || s.Samples > 100_000) {
		return server.BadRequest("samples must be in [10, 100000], got %d", s.Samples)
	}
	if s.Samples == 0 {
		s.Samples = 200
	}
	return nil
}

// ParseScenario decodes a strict-JSON scenario config and validates it.
// Unknown fields are rejected — a typoed knob must fail loudly, not
// silently run the default traffic pattern.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := server.DecodeStrict(data, &s); err != nil {
		return Scenario{}, err
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// mixEntries returns the mix in sorted-name order with cumulative
// weights — map iteration order must never reach the RNG stream.
func (s *Scenario) mixEntries() (names []string, cum []float64) {
	for name, w := range s.Mix {
		if w > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	cum = make([]float64, len(names))
	total := 0.0
	for i, name := range names {
		total += s.Mix[name]
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return names, cum
}

// mixAll returns a copy of the standard all-endpoint weighting, biased
// toward the cheap hot-path operations the way interactive frontends
// are.
func mixAll() map[string]float64 {
	return map[string]float64{
		"optimize": 6, "sweep": 3, "project": 1,
		"scenario": 0.5, "sensitivity": 1, "ablation": 0.5,
		"compare": 0.5, "frontier": 0.5, "models": 0.5,
	}
}

// builtins are the named scenarios shipped with the harness.
// "smoke" is the deterministic tier-1 scenario: sequential, so that
// under a LogicalClock two runs produce byte-identical CSV output.
func builtins() []Scenario {
	return []Scenario{
		{
			Name: "smoke", Seed: 1, Requests: 60,
			Arrival:  ArrivalSpec{Process: "closed", Concurrency: 1},
			Mix:      mixAll(),
			HitRatio: 0.5, KeySpace: 8,
		},
		{
			Name: "steady-mixed", Seed: 1, Requests: 400,
			Arrival:  ArrivalSpec{Process: "closed", Concurrency: 8},
			Mix:      mixAll(),
			HitRatio: 0.6, KeySpace: 32,
		},
		{
			// The overload scenario: offered load well past capacity —
			// one in five requests is an expensive Monte Carlo
			// evaluation, arrivals fire regardless of server latency —
			// so the admission gate's shed behavior is measured, not
			// hypothetical.
			Name: "burst-open", Seed: 2, Requests: 400,
			Arrival:  ArrivalSpec{Process: "poisson", RateHz: 2000},
			Mix:      map[string]float64{"optimize": 6, "sweep": 2, "sensitivity": 2},
			HitRatio: 0.3, KeySpace: 16,
			Samples: 20_000,
		},
		{
			Name: "chaos-faults", Seed: 3, Requests: 300,
			Arrival:  ArrivalSpec{Process: "closed", Concurrency: 8},
			Mix:      map[string]float64{"optimize": 5, "sweep": 2, "sensitivity": 1},
			HitRatio: 0.5, KeySpace: 16,
			Faults:   "seed=7,latency=0.05:5ms,error=0.05",
			Deadline: DeadlineSpec{Dist: "uniform", Min: Duration(5 * time.Millisecond), Max: Duration(50 * time.Millisecond)},
			Retries:  3,
		},
	}
}

// BuiltinNames lists the shipped scenarios.
func BuiltinNames() []string {
	var names []string
	for _, sc := range builtins() {
		names = append(names, sc.Name)
	}
	return names
}

// Builtin returns a shipped scenario by name.
func Builtin(name string) (Scenario, bool) {
	for _, sc := range builtins() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
