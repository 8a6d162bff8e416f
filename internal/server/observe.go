package server

import (
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"github.com/calcm/heterosim/internal/telemetry"
)

// Histogram family and stage names. Stages follow a model request
// through the pipeline: decode (read + validate + canonicalize), cache
// (lookup / coalesce wait), gate (admission wait), evaluate (model
// work; sweep additionally times its parallel grid), encode (response
// write).
const (
	famRequestDuration = "request_duration_seconds"
	famStageDuration   = "stage_duration_seconds"

	stageDecode   = "decode"
	stageEvaluate = "evaluate"
	stageEncode   = "encode"
)

// headerModel names the response header carrying the canonical model
// backend that answered a model request (set for every resolvable
// request, including defaulted ones, so logs can attribute load per
// backend without parsing bodies).
const headerModel = "X-Heterosim-Model"

// noopLogger swallows everything; it stands in when Config.Logger is
// nil so the serving path never nil-checks.
var noopLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))

// observe is the outermost middleware: it assigns the request ID
// (accepted from X-Request-ID when well-formed, minted otherwise),
// attaches the ID and the stage-histogram family to the context,
// echoes the ID on the response, and emits exactly one structured log
// line per request — even when a downstream handler aborts the
// connection (the deferred log runs while the panic unwinds, then the
// panic continues to net/http untouched).
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := telemetry.SanitizeRequestID(r.Header.Get(telemetry.HeaderRequestID))
		if id == "" {
			id = telemetry.NewRequestID()
		}
		ctx := telemetry.WithRequestID(r.Context(), id)
		ctx = telemetry.WithStages(ctx, s.stageHist)
		r = r.WithContext(ctx)
		w.Header().Set(telemetry.HeaderRequestID, id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Bool("aborted", sw.status == 0),
				slog.String("cache", sw.Header().Get("X-Heterosim-Cache")),
				slog.String("model", sw.Header().Get(headerModel)),
				slog.Float64("durMs", float64(time.Since(start))/float64(time.Millisecond)),
			)
		}()
		next.ServeHTTP(sw, r)
	})
}

// statusWriter records the response status and size for the access log.
// It forwards Flush so middleware beneath it (the fault injector's
// truncate path) keeps working.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timeEndpoint starts the per-endpoint latency clock; the returned stop
// records into the request-duration family under the endpoint's name
// (i indexes routes). Call it where the endpoint's request
// counter increments, so histogram counts and the JSON counters always
// agree.
func (s *Server) timeEndpoint(i int) func() {
	start := time.Now()
	return func() {
		s.reqHist.Observe(routes[i].name, time.Since(start))
	}
}

// wantsPrometheus decides the /metrics rendering: the explicit
// ?format= query wins (prometheus or json), otherwise an Accept header
// asking for text/plain or OpenMetrics selects the exposition format,
// and everything else keeps the JSON document — the PR 2/3 contract.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// writePrometheus renders the full metric surface — every counter the
// JSON document carries, plus the latency histograms — in Prometheus
// text exposition format under the heterosimd namespace.
func (s *Server) writePrometheus(w io.Writer) error {
	m := s.Snapshot()
	type counter struct {
		name       string
		kind       string
		labelKey   string
		labelValue string
		value      int64
	}
	samples := []counter{
		{"heterosimd_responses_total", "counter", "class", "ok", m.Responses["ok"]},
		{"heterosimd_responses_total", "", "class", "clientError", m.Responses["clientError"]},
		{"heterosimd_responses_total", "", "class", "serverError", m.Responses["serverError"]},
		{"heterosimd_cache_hits_total", "counter", "", "", m.Cache.Hits},
		{"heterosimd_cache_misses_total", "counter", "", "", m.Cache.Misses},
		{"heterosimd_cache_coalesced_total", "counter", "", "", m.Cache.Coalesced},
		{"heterosimd_cache_evictions_total", "counter", "", "", m.Cache.Evictions},
		{"heterosimd_cache_stale_served_total", "counter", "", "", m.Cache.StaleServed},
		{"heterosimd_cache_entries", "gauge", "", "", int64(m.Cache.Entries)},
		{"heterosimd_cache_stale_entries", "gauge", "", "", int64(m.Cache.StaleEntries)},
		{"heterosimd_cache_capacity", "gauge", "", "", int64(m.Cache.Capacity)},
		{"heterosimd_cache_inflight", "gauge", "", "", m.Cache.Inflight},
		{"heterosimd_admission_accepted_total", "counter", "", "", m.Admission.Accepted},
		{"heterosimd_admission_rejected_full_total", "counter", "", "", m.Admission.RejectedFull},
		{"heterosimd_admission_rejected_timeout_total", "counter", "", "", m.Admission.RejectedTimeout},
		{"heterosimd_admission_rejected_deadline_total", "counter", "", "", m.Admission.RejectedDeadline},
		{"heterosimd_admission_inflight", "gauge", "", "", int64(m.Admission.Inflight)},
		{"heterosimd_admission_queued", "gauge", "", "", m.Admission.Queued},
		{"heterosimd_admission_max_inflight", "gauge", "", "", int64(m.Admission.MaxInflight)},
		{"heterosimd_admission_max_queue", "gauge", "", "", m.Admission.MaxQueue},
		{"heterosimd_workers", "gauge", "", "", int64(m.Workers)},
	}
	if m.Peers != nil {
		samples = append(samples,
			counter{"heterosimd_peer_fetches_total", "counter", "", "", m.Peers.Fetches},
			counter{"heterosimd_peer_hits_total", "counter", "", "", m.Peers.Hits},
			counter{"heterosimd_peer_misses_total", "counter", "", "", m.Peers.Misses},
			counter{"heterosimd_peer_fetch_errors_total", "counter", "", "", m.Peers.FetchErrors},
			counter{"heterosimd_peer_local_fallbacks_total", "counter", "", "", m.Peers.LocalFallbacks},
		)
	}
	if err := telemetry.WriteType(w, "heterosimd_uptime_seconds", "gauge"); err != nil {
		return err
	}
	if err := telemetry.WriteGaugeFloat(w, "heterosimd_uptime_seconds", m.UptimeSeconds); err != nil {
		return err
	}
	if err := telemetry.WriteType(w, "heterosimd_requests_total", "counter"); err != nil {
		return err
	}
	for _, rt := range routes {
		if err := telemetry.WriteCounter(w, "heterosimd_requests_total", "endpoint", rt.name, m.Requests[rt.name]); err != nil {
			return err
		}
	}
	for _, c := range samples {
		if c.kind != "" {
			if err := telemetry.WriteType(w, c.name, c.kind); err != nil {
				return err
			}
		}
		if err := telemetry.WriteCounter(w, c.name, c.labelKey, c.labelValue, c.value); err != nil {
			return err
		}
	}
	return telemetry.WritePrometheus(w, "heterosimd", s.tel.Snapshot())
}

// Telemetry exposes the server's histogram registry, for tests and the
// benchmark's per-layer trace.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }
