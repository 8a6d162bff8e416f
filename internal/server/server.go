// Package server is the serving layer of the reproduction: JSON-over-HTTP
// endpoints exposing the Chung et al. model — single design points,
// (f x budget) sweeps, ITRS trajectory projections, and the Section 6.2
// scenario studies — backed by a sharded result cache with request
// coalescing (internal/servecache) and a bounded-concurrency admission
// gate so overload degrades to 429/503 instead of collapsing.
//
// The model is a pure function of the request, which shapes the whole
// design: responses are cached as final bytes keyed by a canonical
// encoding of the request, identical concurrent requests coalesce onto
// one evaluation, and every response is byte-identical at any worker
// count (the engine's determinism guarantee carries through the wire).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/servecache"
	"github.com/calcm/heterosim/internal/telemetry"
	"github.com/calcm/heterosim/internal/version"
)

// Config parameterizes the serving layer. The zero value is usable:
// every field has a production default applied by New.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string

	// Workers sizes the evaluation worker pool used when a request does
	// not ask for a specific count; <= 0 means GOMAXPROCS. Responses are
	// byte-identical at every worker count.
	Workers int

	// CacheEntries bounds the result cache (default 4096 responses).
	// Any negative value disables storage but keeps request coalescing.
	CacheEntries int

	// MaxInflight bounds concurrent model evaluations admitted past the
	// gate (default 2 x GOMAXPROCS). Cache hits bypass the gate.
	MaxInflight int

	// MaxQueue bounds requests waiting for an evaluation slot; one more
	// is rejected immediately with 429 (default MaxInflight).
	MaxQueue int

	// QueueTimeout bounds how long a queued request waits for a slot
	// before a 503 (default 2s).
	QueueTimeout time.Duration

	// RequestTimeout bounds one model request end to end: queue wait plus
	// evaluation. Work still running at the deadline is cancelled through
	// the engine's context and the request gets 504 (or a stale cached
	// response, when one is retained). 0 means the default 30s; any
	// negative value disables per-request deadlines.
	RequestTimeout time.Duration

	// Middleware, when non-nil, wraps the root handler — the daemon uses
	// it to splice in fault injection behind its env guard. It must not
	// be changed after New. The observability middleware (request IDs,
	// access logging) wraps outside it, so injected faults are logged
	// like any other response.
	Middleware func(http.Handler) http.Handler

	// Peers, when non-empty, turns on the peer-aware cache tier: the
	// static cluster membership as base URLs (bare host:port accepted).
	// Every member must be given the same set — ownership of each
	// canonical cache key is consistent-hashed over the sorted
	// membership, so the lists must agree for the ring to agree.
	// PeerSelf is required alongside it.
	Peers []string

	// PeerSelf is this process's own base URL as it appears in Peers —
	// how the server recognizes the keys it owns.
	PeerSelf string

	// PeerTimeout bounds one owner fetch (default 10s). The request
	// deadline still applies on top; whichever is sooner wins.
	PeerTimeout time.Duration

	// Logger receives one structured line per request plus lifecycle
	// events. nil means discard (tests stay quiet by default).
	Logger *slog.Logger
}

// withDefaults normalizes the config: worker counts go through
// par.Normalize (the same helper the CLI flag uses) and unset fields get
// production defaults.
func (c Config) withDefaults() (Config, error) {
	c.Workers = par.Normalize(c.Workers)
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = -1 // canonical "coalescing only"
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 2 * par.Workers(0)
	}
	if c.MaxInflight < 1 {
		return c, errors.New("server: MaxInflight must be >= 1")
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = c.MaxInflight
	}
	if c.MaxQueue < 0 {
		return c, errors.New("server: MaxQueue must be >= 0")
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.QueueTimeout < 0 {
		return c, errors.New("server: QueueTimeout must be >= 0")
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = -1 // canonical "no per-request deadline"
	}
	if c.PeerTimeout == 0 {
		c.PeerTimeout = 10 * time.Second
	}
	if c.PeerTimeout < 0 {
		return c, errors.New("server: PeerTimeout must be >= 0")
	}
	if len(c.Peers) > 0 && c.PeerSelf == "" {
		return c, errors.New("server: Peers requires PeerSelf")
	}
	if len(c.Peers) == 0 && c.PeerSelf != "" {
		return c, errors.New("server: PeerSelf requires Peers")
	}
	return c, nil
}

// Server is the HTTP serving layer. Construct with New; it is safe for
// concurrent use.
type Server struct {
	cfg     Config
	cache   *servecache.Cache
	cluster *servecache.Cluster // nil when single-node
	memo    *bodyMemo           // repeated body -> canonical key, see serveOp
	gate    *gate
	mux     *http.ServeMux
	handler http.Handler // mux, possibly wrapped by cfg.Middleware, inside observe
	start   time.Time
	logger  *slog.Logger

	// tel holds the latency histograms: reqHist per endpoint, stageHist
	// per pipeline stage (decode/cache/gate/evaluate/encode/sweep).
	tel       *telemetry.Registry
	reqHist   *telemetry.Family
	stageHist *telemetry.Family

	// requests are the per-endpoint counters, indexed like routes, so a
	// new route gets its counter for free.
	requests  []atomic.Int64
	responses struct{ ok, clientErr, serverErr atomic.Int64 }
	panics    atomic.Int64 // recovered by guard

	// onEvaluate, when set (tests only), observes every actual model
	// evaluation — after admission, on misses only — keyed by endpoint.
	onEvaluate func(endpoint string)
}

// New builds a Server from the config (zero value = production
// defaults).
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	entries := cfg.CacheEntries
	if entries < 0 {
		entries = 0
	}
	cache, err := servecache.New(entries)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		cache:  cache,
		memo:   newBodyMemo(cfg.CacheEntries),
		gate:   newGate(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueTimeout),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		logger: cfg.Logger,
		tel:    telemetry.NewRegistry(),
	}
	if s.logger == nil {
		s.logger = noopLogger
	}
	s.reqHist = s.tel.Family(famRequestDuration, "endpoint")
	s.stageHist = s.tel.Family(famStageDuration, "stage")
	if err := s.initCluster(); err != nil {
		return nil, err
	}
	s.requests = make([]atomic.Int64, len(routes))
	for i := range routes {
		s.mux.HandleFunc(routes[i].path, s.handle(i))
	}
	s.handler = http.Handler(s.mux)
	if cfg.Middleware != nil {
		s.handler = cfg.Middleware(s.handler)
	}
	s.handler = s.observe(s.handler)
	return s, nil
}

// Config returns the server's effective (default-applied) configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the root handler (middleware included), for mounting
// or httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on ln until ctx is cancelled, then drains
// in-flight requests for up to 5 seconds. It returns nil on a clean
// shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe listens on cfg.Addr and calls Serve. ready, if non-nil,
// receives the bound address once listening (useful with ":0").
func (s *Server) ListenAndServe(ctx context.Context, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Serve(ctx, ln)
}

// handle wraps route i with the bookkeeping every endpoint shares: the
// request counter and latency clock, then on POST routes the stream
// parameter (checked before the method) and the method. GET routes
// answer any method and ignore the parameter.
func (s *Server) handle(i int) http.HandlerFunc {
	rt := &routes[i]
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests[i].Add(1)
		defer s.observeEndpoint(i, time.Now())
		if rt.method == http.MethodGet {
			rt.serve(s, w, r)
			return
		}
		stream, err := rt.wantsStream(r)
		switch {
		case err != nil:
			s.writeError(w, err)
		case r.Method != http.MethodPost:
			w.Header().Set("Allow", http.MethodPost)
			s.writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Message: "use POST"})
		case stream:
			s.serveStream(w, r, rt.stream)
		default:
			rt.serve(s, w, r)
		}
	}
}

// serveOp is the buffered pipeline of registry op op, served on route
// i: prepare (strict decode + validation + canonical cache key),
// coalescing lookup, admission (misses only — cached work is free and
// must stay admissible under overload), per-request deadline (misses
// only: a hit arms no timer), stale fallback, and error-to-status
// mapping.
//
// A body the memo remembers skips Prepare: its key and model come from
// the memo, and Prepare runs only if the lookup needs an evaluation,
// inside the cache leader. A body that ran Prepare and was answered
// from the cache is remembered for next time, with its response's
// Content-Length value.
func (s *Server) serveOp(w http.ResponseWriter, r *http.Request, op engine.Op, i int) {
	var body []byte
	var entry memoEntry
	var remembered bool
	var build func(context.Context) ([]byte, error)
	if !s.prepare(w, r, func(b []byte, env engine.Env) (string, error) {
		body = b
		if entry, remembered = s.memo.get(i, b); remembered {
			return entry.model, nil
		}
		// Declared past the memo hit: Prepare's report escapes to the
		// heap, and only a request that runs Prepare pays for it.
		var meta engine.Meta
		env.Meta = &meta
		var err error
		entry.key, build, err = op.Prepare(b, env)
		entry.model = meta.Model
		return meta.Model, err
	}) {
		return
	}
	resp, outcome, err := s.lookup(r.Context(), r, entry.key, s.cfg.RequestTimeout, func(ctx context.Context) ([]byte, error) {
		return s.evaluate(ctx, s.gate, op.Name(), func(ctx context.Context) ([]byte, error) {
			if build == nil { // a remembered body: Prepare runs only now
				var err error
				if _, build, err = op.Prepare(body, engine.Env{Workers: s.cfg.Workers}); err != nil {
					return nil, err
				}
			}
			return build(ctx)
		})
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	encode := telemetry.StartSpan(r.Context(), stageEncode)
	length := entry.length
	if len(length) == 0 || entry.size != len(resp) {
		length = []string{strconv.Itoa(len(resp))}
	}
	if outcome == servecache.Hit && !remembered {
		entry.size, entry.length = len(resp), length
		s.memo.put(i, body, entry)
	}
	h := w.Header()
	h[keyContentType] = headerValueJSON
	h[keyCache] = headerValueCache[outcome]
	h[keyContentLength] = length
	s.responses.ok.Add(1)
	w.Write(resp)
	encode.End()
}

// prepare is the decode step of every POST pipeline: it reads the body
// and runs decode inside the decode span. decode returns the resolved
// model backend, which goes into the response header and the access log
// (it never reaches cache keys or response bodies); a caller that runs
// Prepare hands it an engine.Meta of its own to report through. On
// failure prepare writes the error response and returns false. A panic
// in decode is answered as a 500 (see guard).
func (s *Server) prepare(w http.ResponseWriter, r *http.Request, decode func(body []byte, env engine.Env) (model string, err error)) bool {
	span := telemetry.StartSpan(r.Context(), stageDecode)
	body, err := readBody(r)
	var model string
	if err == nil {
		err = s.guard(r.Context(), "decode", func() (err error) {
			model, err = decode(body, engine.Env{Workers: s.cfg.Workers})
			return err
		})
	}
	span.End()
	if model != "" {
		setModelHeader(w.Header(), model)
	}
	if err != nil {
		s.writeError(w, err)
		return false
	}
	return true
}

// withDeadline bounds a whole stream — queue wait plus evaluation — by
// Config.RequestTimeout, unless per-request deadlines are off. A
// buffered op hands the timeout to its cache lookup instead, which arms
// it only on a miss, and a batch arms its one deadline at its first
// miss (batchDeadline).
func (s *Server) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	return ctx, func() {}
}

// admitter grants an evaluation its admission slot: the server's gate
// for a standalone request or a stream, the shared slot for a batch
// item.
type admitter interface {
	acquire(ctx context.Context) (release func(), status int)
}

// evaluate is the admit-and-evaluate step every evaluation passes:
// admission (a rejection is the saturation error with the gate's
// status), the onEvaluate hook, and the evaluate span around eval.
func (s *Server) evaluate(ctx context.Context, adm admitter, name string, eval func(context.Context) ([]byte, error)) ([]byte, error) {
	release, status := adm.acquire(ctx)
	if status != 0 {
		return nil, &apiError{Status: status, Message: "server saturated, retry later"}
	}
	defer release()
	if s.onEvaluate != nil {
		s.onEvaluate(name)
	}
	defer telemetry.StartSpan(ctx, stageEvaluate).End()
	var resp []byte
	err := s.guard(ctx, name, func() (err error) {
		resp, err = eval(ctx)
		return err
	})
	return resp, err
}

// guard runs fn and turns a panic in it into an error, which classify
// answers as a 500: one request's bug must not cost the connection, and
// the key it panicked on stays free for the next request to evaluate
// afresh. Each recovered panic is counted (heterosimd_panics_total) and
// logged once with the request ID and the stack. http.ErrAbortHandler
// is net/http's deliberate abort, not a bug, and goes on unwinding.
func (s *Server) guard(ctx context.Context, where string, fn func() error) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		s.panics.Add(1)
		s.logger.LogAttrs(ctx, slog.LevelError, "panic recovered",
			slog.String("id", telemetry.RequestID(ctx)),
			slog.String("in", where),
			slog.Any("panic", p),
			slog.String("stack", string(debug.Stack())))
		err = fmt.Errorf("%s panicked: %v", where, p)
	}()
	return fn()
}

// maxBodyBytes bounds request bodies; the largest legitimate request (a
// dense sweep spec) is well under a kilobyte.
const maxBodyBytes = 1 << 20

// maxExactBodyBytes bounds the buffer readBody allocates from a declared
// Content-Length before any body byte has arrived. Above it the body
// grows only as its bytes come in, so a client that declares a large
// body and stalls pins no more than this.
const maxExactBodyBytes = 64 << 10

// readBody reads and bounds the request body. A small declared
// Content-Length is read in one exact-size buffer: net/http's body
// reader already stops at the declared length and reports a short body,
// so only the bound is checked here. A larger body, one of unknown
// length, or a declared 0 (which a hand-built request may carry over a
// non-empty body) is read through http.MaxBytesReader.
func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	var body []byte
	var err error
	switch n := r.ContentLength; {
	case n > maxBodyBytes:
		err = &http.MaxBytesError{Limit: maxBodyBytes}
	case n > 0 && n <= maxExactBodyBytes:
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	default:
		body, err = io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	}
	if err != nil {
		return nil, badRequest("reading body: %v", err)
	}
	return body, nil
}

// classify is the serving layer's one error classifier: an apiError
// keeps its status, an expired request deadline is 504, a disconnected
// client 503 (moot — nobody reads it), anything else a 500. Standalone
// error bodies, batch items and in-band stream lines all use it.
func classify(err error) *apiError {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{Status: http.StatusGatewayTimeout, Message: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &apiError{Status: http.StatusServiceUnavailable, Message: "request cancelled"}
	default:
		return &apiError{Status: http.StatusInternalServerError, Message: err.Error()}
	}
}

// countError counts a failed response under its status class.
func (s *Server) countError(status int) {
	if status >= 500 {
		s.responses.serverErr.Add(1)
	} else {
		s.responses.clientErr.Add(1)
	}
}

// writeError answers with the classified error as a JSON body.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	ae := classify(err)
	s.countError(ae.Status)
	w.Header().Set("Content-Type", "application/json")
	if ae.Status == http.StatusServiceUnavailable || ae.Status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(ae.Status)
	json.NewEncoder(w).Encode(ae)
}

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleVersion reports the build identity, stamped with the model
// backends this build can serve.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	info := version.Get()
	info.Models = model.Names()
	json.NewEncoder(w).Encode(info)
}

// handleModels reports the model-backend registry: every backend's
// capabilities and parameters, plus the default answering requests
// that omit the model field.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ModelsResponse{Default: model.DefaultName, Models: model.Infos()})
}

// Metrics is the /metrics document: expvar-style JSON with no external
// dependencies. Peers appears only when the peer tier is configured,
// so single-node documents keep their exact pre-cluster shape, and
// Panics only once a panic has been recovered, so a healthy server's
// document keeps it too.
type Metrics struct {
	UptimeSeconds float64               `json:"uptimeSeconds"`
	Version       version.Info          `json:"version"`
	Cache         servecache.Stats      `json:"cache"`
	Peers         *servecache.PeerStats `json:"peers,omitempty"`
	Admission     gateStats             `json:"admission"`
	Requests      map[string]int64      `json:"requests"`
	Responses     map[string]int64      `json:"responses"`
	Panics        int64                 `json:"panics,omitempty"`
	Workers       int                   `json:"workers"`
}

// Snapshot returns the current metrics document.
func (s *Server) Snapshot() Metrics {
	reqs := make(map[string]int64, len(routes))
	for i := range routes {
		reqs[routes[i].name] = s.requests[i].Load()
	}
	m := Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Version:       version.Get(),
		Cache:         s.cache.Stats(),
		Admission:     s.gate.stats(),
		Requests:      reqs,
		Responses: map[string]int64{
			"ok":          s.responses.ok.Load(),
			"clientError": s.responses.clientErr.Load(),
			"serverError": s.responses.serverErr.Load(),
		},
		Panics:  s.panics.Load(),
		Workers: s.cfg.Workers,
	}
	if s.cluster != nil {
		ps := s.cluster.Stats()
		m.Peers = &ps
	}
	return m
}

// handleMetrics serves the counters: the PR 2/3 JSON document by
// default (byte-compatible — existing scrapers and goldens see no
// change), Prometheus text exposition when the client asks via
// ?format=prometheus or an Accept header (see wantsPrometheus).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.writePrometheus(w); err != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelWarn, "metrics write failed",
				slog.String("error", err.Error()))
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}
