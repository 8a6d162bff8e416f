package loadgen

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/calcm/heterosim/internal/server"
)

// Sample is one completed request as the recorders see it.
type Sample struct {
	Scenario string
	Seq      int
	// OffsetUS is the request's start time relative to the run start,
	// in microseconds of the run's clock.
	OffsetUS int64
	Endpoint string
	Key      int64
	// DeadlineUS is the client-side budget (0 = none).
	DeadlineUS int64
	// Status is the final HTTP status (0 when no response arrived).
	Status int
	// Cache is the X-Heterosim-Cache outcome of the final attempt
	// (hit/miss/coalesced/stale; empty for uncached endpoints).
	Cache string
	// Fault is the X-Fault-Injected marker when the chaos middleware
	// answered instead of the server.
	Fault string
	// Attempts counts wire attempts the client made (>= 1).
	Attempts int
	// LatencyUS is the request latency in microseconds of the run's
	// clock (logical ticks under the deterministic clock).
	LatencyUS int64
	// Err classifies the final error: "" (success), "api" (terminal
	// 4xx), "retry" (budget exhausted), "transport", or "deadline".
	Err string
}

// Recorder observes every completed request. Record may be called
// concurrently; Flush is called once, after the run, with samples
// guaranteed complete.
type Recorder interface {
	Record(s Sample)
	Flush() error
}

// csvHeader is the pinned per-request time-series schema. Changing it
// breaks the golden test on purpose: downstream analysis scripts parse
// these columns.
const csvHeader = "scenario,seq,offset_us,endpoint,key,deadline_us,status,cache,fault,attempts,latency_us,error"

// csvRow formats one sample in header order.
func csvRow(s Sample) string {
	return strings.Join([]string{
		s.Scenario,
		strconv.Itoa(s.Seq),
		strconv.FormatInt(s.OffsetUS, 10),
		s.Endpoint,
		strconv.FormatInt(s.Key, 10),
		strconv.FormatInt(s.DeadlineUS, 10),
		strconv.Itoa(s.Status),
		s.Cache,
		s.Fault,
		strconv.Itoa(s.Attempts),
		strconv.FormatInt(s.LatencyUS, 10),
		s.Err,
	}, ",")
}

// CSVRecorder writes the per-request time series. Samples are buffered
// and emitted in sequence order at Flush, so concurrent runs still
// produce a stable row order (column values then differ only where the
// measurement does).
type CSVRecorder struct {
	w io.Writer

	mu      sync.Mutex
	samples []Sample
}

// NewCSVRecorder buffers samples for w.
func NewCSVRecorder(w io.Writer) *CSVRecorder { return &CSVRecorder{w: w} }

// Record buffers one sample.
func (r *CSVRecorder) Record(s Sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// Flush writes the header and every sample in sequence order.
func (r *CSVRecorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].Seq < r.samples[j].Seq })
	var b strings.Builder
	b.WriteString(csvHeader)
	b.WriteByte('\n')
	for _, s := range r.samples {
		b.WriteString(csvRow(s))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(r.w, b.String())
	return err
}

// CacheRatios is the cache section of a Summary, from the server's
// /metrics counters (deltas across the run when the harness owns the
// server, best-effort totals otherwise).
type CacheRatios struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Coalesced   int64 `json:"coalesced"`
	StaleServed int64 `json:"staleServed"`
	// HitRatio is hits / (hits + misses) over the run.
	HitRatio float64 `json:"hitRatio"`
	// CoalesceRatio is coalesced / (hits + misses + coalesced).
	CoalesceRatio float64 `json:"coalesceRatio"`
}

// Summary reduces one scenario run to its scoreboard numbers. All
// latencies are quantiles over successful requests, in the run clock's
// microseconds.
type Summary struct {
	Scenario string `json:"scenario"`
	Server   string `json:"server,omitempty"`
	Seed     int64  `json:"seed"`

	Requests        int `json:"requests"`
	OK              int `json:"ok"`
	Shed            int `json:"shed"`         // 429 + 503
	DeadlineMiss    int `json:"deadlineMiss"` // 504 + client-side deadline expiry
	InjectedFaults  int `json:"injectedFaults"`
	TransportErrors int `json:"transportErrors"`
	OtherErrors     int `json:"otherErrors"` // anything not accounted above

	DurationMS    float64 `json:"durationMs"`
	ThroughputRPS float64 `json:"throughputRps"`

	LatencyP50US   int64 `json:"latencyP50Us"`
	LatencyP99US   int64 `json:"latencyP99Us"`
	LatencyMaxUS   int64 `json:"latencyMaxUs"`
	LatencySamples int   `json:"latencySamples"`

	ShedRate         float64 `json:"shedRate"`
	DeadlineMissRate float64 `json:"deadlineMissRate"`

	Cache CacheRatios `json:"cache"`
}

// Check holds a summary to the harness invariants the CI smoke asserts:
// the run issued requests, moved traffic, accounted for every request,
// and saw no unexpected failures (shed and deadline misses are expected
// degradation modes; injected faults are expected when a fault spec was
// active; transport/other errors are not).
func (s Summary) Check() error {
	if s.Requests <= 0 {
		return server.BadRequest("summary: no requests issued")
	}
	if s.ThroughputRPS <= 0 {
		return server.BadRequest("summary: throughput is %v rps, want > 0", s.ThroughputRPS)
	}
	if s.OK <= 0 {
		return server.BadRequest("summary: no successful requests")
	}
	sum := s.OK + s.Shed + s.DeadlineMiss + s.InjectedFaults + s.TransportErrors + s.OtherErrors
	if sum != s.Requests {
		return server.BadRequest("summary: outcomes sum to %d, want requests = %d", sum, s.Requests)
	}
	if s.TransportErrors != 0 {
		return server.BadRequest("summary: %d transport errors", s.TransportErrors)
	}
	if s.OtherErrors != 0 {
		return server.BadRequest("summary: %d unexpected errors", s.OtherErrors)
	}
	return nil
}

// summarizer accumulates the Summary during a run.
type summarizer struct {
	mu        sync.Mutex
	latencies []int64
	s         Summary
}

func (a *summarizer) Record(s Sample) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.s.Requests++
	switch {
	case s.Err == "" && s.Status == 200:
		a.s.OK++
		a.latencies = append(a.latencies, s.LatencyUS)
	case s.Err == "deadline" || s.Status == 504:
		a.s.DeadlineMiss++
	case s.Status == 429 || s.Status == 503:
		if s.Fault != "" {
			a.s.InjectedFaults++
		} else {
			a.s.Shed++
		}
	case s.Fault != "":
		a.s.InjectedFaults++
	case s.Err == "transport":
		a.s.TransportErrors++
	default:
		a.s.OtherErrors++
	}
}

func (a *summarizer) Flush() error { return nil }

// quantile returns the q-quantile of sorted latencies (nearest-rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// summary finalizes the accumulated counters over the run duration.
func (a *summarizer) summary(sc *Scenario, elapsedUS int64, cache CacheRatios) Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.s
	s.Scenario = sc.Name
	s.Seed = sc.Seed
	s.Cache = cache
	sort.Slice(a.latencies, func(i, j int) bool { return a.latencies[i] < a.latencies[j] })
	s.LatencySamples = len(a.latencies)
	s.LatencyP50US = quantile(a.latencies, 0.50)
	s.LatencyP99US = quantile(a.latencies, 0.99)
	if n := len(a.latencies); n > 0 {
		s.LatencyMaxUS = a.latencies[n-1]
	}
	s.DurationMS = float64(elapsedUS) / 1e3
	if elapsedUS > 0 {
		s.ThroughputRPS = float64(s.Requests) / (float64(elapsedUS) / 1e6)
	}
	if s.Requests > 0 {
		s.ShedRate = float64(s.Shed) / float64(s.Requests)
		s.DeadlineMissRate = float64(s.DeadlineMiss) / float64(s.Requests)
	}
	return s
}

// ratios derives the summary ratios from raw counter deltas.
func ratios(hits, misses, coalesced, stale int64) CacheRatios {
	c := CacheRatios{Hits: hits, Misses: misses, Coalesced: coalesced, StaleServed: stale}
	if looked := hits + misses; looked > 0 {
		c.HitRatio = float64(hits) / float64(looked)
	}
	if all := hits + misses + coalesced; all > 0 {
		c.CoalesceRatio = float64(coalesced) / float64(all)
	}
	return c
}

// FormatSummaries renders summaries as the aligned text table the CLI
// prints after a run.
func FormatSummaries(w io.Writer, sums []Summary) {
	fmt.Fprintf(w, "%-14s %-12s %8s %8s %6s %6s %9s %10s %10s %7s\n",
		"scenario", "server", "requests", "ok", "shed", "dlmiss", "thr(rps)", "p50(us)", "p99(us)", "hit%")
	for _, s := range sums {
		fmt.Fprintf(w, "%-14s %-12s %8d %8d %6d %6d %9.1f %10d %10d %6.1f%%\n",
			s.Scenario, s.Server, s.Requests, s.OK, s.Shed, s.DeadlineMiss,
			s.ThroughputRPS, s.LatencyP50US, s.LatencyP99US, s.Cache.HitRatio*100)
	}
}
