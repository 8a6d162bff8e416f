package loadgen

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"github.com/calcm/heterosim/internal/client"
	"github.com/calcm/heterosim/internal/server"
)

// genRequest is one generated arrival: what to send and when.
type genRequest struct {
	Seq      int
	Endpoint string
	// Key indexes the request key space. Keys below the scenario's
	// KeySpace are "hot" (repeats that become cache hits once warmed);
	// keys at or above it are unique cold misses.
	Key int64
	// Deadline is the client-side budget for this request (0 = none).
	Deadline time.Duration
	// Gap is the Poisson interarrival delay before this request fires
	// (always 0 for the closed loop).
	Gap time.Duration
}

// generator derives the deterministic request stream from one seeded
// RNG. All draws happen under one lock in one goroutine-independent
// order (closed-loop workers serialize on next), so a (config, seed)
// pair always produces the same stream.
type generator struct {
	sc    *Scenario
	names []string
	cum   []float64

	mu   sync.Mutex
	rng  *rand.Rand
	cold int64
	seq  int
}

func newGenerator(sc *Scenario) *generator {
	names, cum := sc.mixEntries()
	return &generator{
		sc:    sc,
		names: names,
		cum:   cum,
		rng:   rand.New(rand.NewSource(sc.Seed)),
	}
}

// next draws one arrival; ok is false once the scenario's request
// budget is exhausted.
func (g *generator) next() (r genRequest, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.seq >= g.sc.Requests {
		return genRequest{}, false
	}
	r.Seq = g.seq
	g.seq++

	u := g.rng.Float64()
	r.Endpoint = g.names[len(g.names)-1]
	for i, c := range g.cum {
		if u < c {
			r.Endpoint = g.names[i]
			break
		}
	}

	// Key shaping: with probability HitRatio reuse a hot key, otherwise
	// mint a unique cold one. Hot keys repeat, so once the hot set has
	// been evaluated the realized cache-hit ratio converges on the
	// target.
	if g.rng.Float64() < g.sc.HitRatio {
		r.Key = g.rng.Int63n(int64(g.sc.KeySpace))
	} else {
		r.Key = int64(g.sc.KeySpace) + g.cold
		g.cold++
	}

	switch g.sc.Deadline.Dist {
	case "fixed":
		r.Deadline = time.Duration(g.sc.Deadline.Min)
	case "uniform":
		lo, hi := time.Duration(g.sc.Deadline.Min), time.Duration(g.sc.Deadline.Max)
		r.Deadline = lo + time.Duration(g.rng.Int63n(int64(hi-lo)+1))
	}

	if g.sc.Arrival.Process == "poisson" {
		r.Gap = time.Duration(g.rng.ExpFloat64() / g.sc.Arrival.RateHz * float64(time.Second))
	}
	return r, true
}

// fOf maps a key index onto a parallel fraction in [0.5, 0.9): distinct
// keys produce distinct request bodies, hence distinct canonical cache
// keys, so the key space shapes the cache-hit ratio directly.
func fOf(key int64) float64 { return 0.5 + float64(key%400_000)*1e-6 }

// hetASIC is the design every generated model request evaluates: the
// paper's custom-logic U-core, whose published (mu, phi) exist for
// FFT-1024.
var hetASIC = server.DesignSpec{Kind: "het", Device: "ASIC"}

// issuer sends one generated request for key through the typed client.
// samples is the scenario's Monte Carlo cost knob for sensitivity
// requests. The response body is discarded — the harness measures the
// serving behavior, not the model output (which the golden suites
// already pin).
type issuer func(ctx context.Context, c *client.Client, key int64, samples int) error

// endpoints is every endpoint a mix may weight, by name: the seven
// buffered model operations, the stream-only frontier trajectory
// endpoint, and the GET /v1/models discovery endpoint. "frontier"
// drives POST /v1/frontier/stream — NDJSON, cache-bypassing — so mixes
// with it exercise the streaming pipeline under load, not just the
// buffered one.
var endpoints = map[string]issuer{
	"optimize": func(ctx context.Context, c *client.Client, key int64, _ int) error {
		_, err := c.Optimize(ctx, server.OptimizeRequest{Workload: "FFT-1024", F: fOf(key), Design: hetASIC})
		return err
	},
	"sweep": func(ctx context.Context, c *client.Client, key int64, _ int) error {
		_, err := c.Sweep(ctx, server.SweepRequest{
			Workload: "FFT-1024", Design: hetASIC,
			F: server.AxisSpec{Lo: fOf(key), Hi: 0.999, Steps: 8},
		})
		return err
	},
	"project": func(ctx context.Context, c *client.Client, key int64, _ int) error {
		_, err := c.Project(ctx, server.ProjectRequest{Workload: "FFT-1024", F: fOf(key)})
		return err
	},
	"scenario": func(ctx context.Context, c *client.Client, key int64, _ int) error {
		_, err := c.Scenario(ctx, server.ScenarioRequest{Scenario: int(key%6) + 1, Workload: "FFT-1024", F: fOf(key)})
		return err
	},
	"sensitivity": func(ctx context.Context, c *client.Client, key int64, samples int) error {
		_, err := c.Sensitivity(ctx, server.SensitivityRequest{
			Workload: "FFT-1024", F: fOf(key), Design: hetASIC, Samples: samples,
		})
		return err
	},
	"ablation": func(ctx context.Context, c *client.Client, key int64, _ int) error {
		_, err := c.Ablation(ctx, server.AblationRequest{Workload: "FFT-1024", F: fOf(key)})
		return err
	},
	"compare": func(ctx context.Context, c *client.Client, key int64, _ int) error {
		// Two distinct scenarios per request (s2 is s1 shifted by one in
		// 1-6), so the pair list is always duplicate-free.
		s1 := int(key%6) + 1
		_, err := c.Compare(ctx, server.CompareRequest{
			Workload: "FFT-1024", F: fOf(key),
			Pairs: []server.ComparePair{{Scenario: s1}, {Scenario: s1%6 + 1}},
		})
		return err
	},
	"frontier": func(ctx context.Context, c *client.Client, key int64, _ int) error {
		// The stream bypasses the cache by design, so every frontier
		// request is an evaluation regardless of key reuse; rows are
		// discarded like every other response body.
		_, err := c.FrontierStream(ctx, server.FrontierRequest{
			Workload: "FFT-1024", F: fOf(key), Scenario: int(key % 7),
		}, func(server.FrontierRowJSON) error { return nil })
		return err
	},
	"models": func(ctx context.Context, c *client.Client, _ int64, _ int) error {
		_, err := c.Models(ctx)
		return err
	},
}
