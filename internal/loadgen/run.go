package loadgen

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"github.com/calcm/heterosim/internal/client"
	"github.com/calcm/heterosim/internal/server"
)

// RunConfig aims a scenario at a target daemon.
type RunConfig struct {
	// BaseURL is the daemon under load, e.g. "http://127.0.0.1:8080".
	BaseURL string

	// BaseURLs, when set, lists every member of a cluster under load;
	// BaseURL must then be empty. The driving client is pick-first with
	// failover (see internal/client), so a mid-run peer death shifts
	// traffic instead of failing the scenario.
	BaseURLs []string

	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client

	// Clock drives scheduling and every recorded timestamp (default
	// WallClock). Inject a LogicalClock for deterministic output.
	Clock Clock

	// Recorders observe every completed request; the Summary
	// accumulator is always attached in addition.
	Recorders []Recorder

	// ServerName labels the Summary with the server configuration the
	// run targeted (in-process runs set it; it may be left "").
	ServerName string
}

// sampleSlot carries the in-flight request's attempt metadata from the
// client's OnAttempt observer back to the issuing goroutine. Attempts
// within one call run sequentially on the caller's goroutine, so the
// slot needs no lock.
type sampleSlot struct {
	attempts int
	status   int
	cache    string
	fault    string
}

type sampleSlotKey struct{}

// classify reduces a client error to the sample's error class.
func classify(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		if ae.Status == http.StatusGatewayTimeout {
			return "deadline"
		}
		var re *client.RetryError
		if errors.As(err, &re) {
			return "retry"
		}
		return "api"
	}
	var te *client.TransportError
	if errors.As(err, &te) {
		return "transport"
	}
	return "other"
}

// Run executes one scenario against cfg's target and returns its
// Summary. The scenario is validated (and defaulted) first; the request
// stream is a pure function of its seed. Cache ratios come from the
// target's /metrics counters, sampled before and after the run —
// meaningful when the harness owns the daemon, best-effort on a shared
// one.
func Run(ctx context.Context, sc Scenario, cfg RunConfig) (Summary, error) {
	if err := sc.Validate(); err != nil {
		return Summary{}, err
	}
	if cfg.BaseURL == "" && len(cfg.BaseURLs) == 0 {
		return Summary{}, errors.New("loadgen: RunConfig.BaseURL (or BaseURLs) required")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = WallClock{}
	}
	cli, err := client.New(client.Config{
		BaseURL:     cfg.BaseURL,
		BaseURLs:    cfg.BaseURLs,
		HTTPClient:  cfg.HTTPClient,
		MaxAttempts: sc.Retries,
		// Snappy backoff: the harness measures the server's behavior,
		// not the client's patience.
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		Seed:        sc.Seed,
		OnAttempt: func(ctx context.Context, a client.Attempt) {
			slot, _ := ctx.Value(sampleSlotKey{}).(*sampleSlot)
			if slot == nil {
				return
			}
			slot.attempts = a.N
			slot.status = a.Status
			slot.cache = a.Cache
			slot.fault = a.Fault
		},
	})
	if err != nil {
		return Summary{}, err
	}

	before, beforeErr := cli.Metrics(ctx)

	acc := &summarizer{}
	recorders := append([]Recorder{Recorder(acc)}, cfg.Recorders...)
	gen := newGenerator(&sc)
	start := clock.Now()
	bound := time.Duration(sc.Duration)
	expired := func() bool {
		return bound > 0 && clock.Now().Sub(start) >= bound
	}

	doOne := func(r genRequest) {
		slot := &sampleSlot{}
		reqCtx := context.WithValue(ctx, sampleSlotKey{}, slot)
		cancel := context.CancelFunc(func() {})
		if r.Deadline > 0 {
			reqCtx, cancel = context.WithTimeout(reqCtx, r.Deadline)
		}
		t0 := clock.Now()
		err := endpoints[r.Endpoint](reqCtx, cli, r.Key, sc.Samples)
		lat := clock.Now().Sub(t0)
		cancel()
		s := Sample{
			Scenario:   sc.Name,
			Seq:        r.Seq,
			OffsetUS:   t0.Sub(start).Microseconds(),
			Endpoint:   r.Endpoint,
			Key:        r.Key,
			DeadlineUS: r.Deadline.Microseconds(),
			Status:     slot.status,
			Cache:      slot.cache,
			Fault:      slot.fault,
			Attempts:   slot.attempts,
			LatencyUS:  lat.Microseconds(),
			Err:        classify(err),
		}
		if s.Status == 0 {
			var ae *client.APIError
			if errors.As(err, &ae) {
				s.Status = ae.Status
			}
		}
		for _, rec := range recorders {
			rec.Record(s)
		}
	}

	var wg sync.WaitGroup
	switch sc.Arrival.Process {
	case "closed":
		for w := 0; w < sc.Arrival.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if ctx.Err() != nil || expired() {
						return
					}
					r, ok := gen.next()
					if !ok {
						return
					}
					doOne(r)
				}
			}()
		}
	case "poisson":
		// Open loop: the dispatcher paces arrivals off the seeded
		// interarrival stream regardless of server latency; the
		// outstanding-request bound converts pathological overload into
		// schedule slip instead of unbounded goroutine growth.
		sem := make(chan struct{}, sc.Arrival.MaxOutstanding)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil || expired() {
					return
				}
				r, ok := gen.next()
				if !ok {
					return
				}
				if clock.Sleep(ctx, r.Gap) != nil {
					return
				}
				sem <- struct{}{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					doOne(r)
				}()
			}
		}()
	}
	wg.Wait()
	elapsed := clock.Now().Sub(start)

	var cache CacheRatios
	if after, err := cli.Metrics(ctx); err == nil && beforeErr == nil {
		cache = ratios(
			after.Cache.Hits-before.Cache.Hits,
			after.Cache.Misses-before.Cache.Misses,
			after.Cache.Coalesced-before.Cache.Coalesced,
			after.Cache.StaleServed-before.Cache.StaleServed,
		)
	}

	sum := acc.summary(&sc, elapsed.Microseconds(), cache)
	sum.Server = cfg.ServerName
	for _, rec := range cfg.Recorders {
		if err := rec.Flush(); err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// Metrics re-exports the server metrics type the harness scrapes, so
// CLI callers can assert on counters without importing internal/server.
type Metrics = server.Metrics
