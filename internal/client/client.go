// Package client is the Go client for the heterosimd serving API: typed
// calls for every /v1/* endpoint with the retry discipline the model
// layer's purity makes safe. Each endpoint method is a thin typed
// wrapper over one generic call path (post/get), mirroring the server's
// single generic pipeline over its route table.
//
// Every model endpoint is a pure function of the request body, so every
// request is idempotent and a retry can never double-apply work. The
// client therefore retries transport failures (connection resets,
// truncated bodies, unexpected EOFs) and overload statuses (429, 5xx)
// with capped exponential backoff and full jitter, honors Retry-After
// when the server supplies one, and gives up early when the caller's
// context deadline would expire before the next attempt could run.
// Validation failures (other 4xx) are terminal and returned as *APIError
// on the first attempt.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/calcm/heterosim/internal/baseurl"
	"github.com/calcm/heterosim/internal/codec"
	"github.com/calcm/heterosim/internal/server"
	"github.com/calcm/heterosim/internal/telemetry"
	"github.com/calcm/heterosim/internal/version"
)

// Config parameterizes a Client. The zero value is not usable — BaseURL
// (or BaseURLs) is required; every other field has a sensible default
// applied by New.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". A bare
	// "host:port" is accepted and normalized (internal/baseurl).
	BaseURL string

	// BaseURLs, when set, lists every endpoint of a cluster; BaseURL
	// must then be empty. The client is pick-first: all calls go to one
	// current endpoint, and a retryable failure rotates the whole
	// client to the next — the existing backoff/Retry-After machinery
	// paces the retry, it just lands on a different peer. Any peer can
	// answer any request (the cache tier forwards to the key's owner),
	// so failover never changes a response body.
	BaseURLs []string

	// HTTPClient issues the requests (default http.DefaultClient). Give
	// it no Timeout; the per-call context bounds each attempt.
	HTTPClient *http.Client

	// MaxAttempts bounds tries per call, first attempt included
	// (default 5).
	MaxAttempts int

	// BaseBackoff seeds the exponential schedule (default 50ms); attempt
	// n sleeps a full-jittered duration in (0, min(MaxBackoff,
	// BaseBackoff<<n)].
	BaseBackoff time.Duration

	// MaxBackoff caps one sleep (default 2s).
	MaxBackoff time.Duration

	// Seed drives the jitter stream; a fixed seed makes the backoff
	// schedule reproducible in tests (default 1).
	Seed int64

	// Logger, when non-nil, receives one structured line per retried
	// attempt and per give-up, each carrying the call's request ID — the
	// client half of the end-to-end tracing loop.
	Logger *slog.Logger

	// Sleeper paces the retry loop (default: real timers). Injecting a
	// fake makes backoff behavior instantly testable: the exact schedule
	// the client would sleep is observable without waiting through it.
	Sleeper Sleeper

	// OnAttempt, when non-nil, observes every completed wire attempt
	// with the caller's context, so a driver issuing concurrent calls
	// can correlate attempts back to its own per-request state. The
	// callback must be safe for concurrent use and must not block.
	OnAttempt func(ctx context.Context, a Attempt)
}

// Sleeper is the retry loop's clock: Sleep waits d or until ctx is
// done, returning ctx.Err() when the context ended the wait early.
type Sleeper interface {
	Sleep(ctx context.Context, d time.Duration) error
}

// realSleeper is the production Sleeper.
type realSleeper struct{}

func (realSleeper) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Attempt describes one completed wire attempt for Config.OnAttempt:
// enough to account for every response class a load driver cares about
// without re-parsing bodies.
type Attempt struct {
	// Endpoint is the request path, e.g. "/v1/optimize".
	Endpoint string
	// N is the 1-based attempt number within the call.
	N int
	// Status is the HTTP status (0 when no response arrived).
	Status int
	// Cache is the X-Heterosim-Cache outcome header, when present.
	Cache string
	// Fault is the X-Fault-Injected marker, when the chaos middleware
	// answered.
	Fault string
	// Err is the attempt's error (nil on success); terminal vs
	// retryable classification is the caller's via errors.As.
	Err error
}

// withDefaults normalizes the config and resolves the endpoint list.
func (c Config) withDefaults() (Config, []string, error) {
	if c.BaseURL != "" && len(c.BaseURLs) > 0 {
		return c, nil, errors.New("client: set BaseURL or BaseURLs, not both")
	}
	raw := c.BaseURLs
	if len(raw) == 0 {
		if c.BaseURL == "" {
			return c, nil, errors.New("client: BaseURL required")
		}
		raw = []string{c.BaseURL}
	}
	endpoints := make([]string, 0, len(raw))
	seen := make(map[string]bool)
	for _, u := range raw {
		n, err := baseurl.Normalize(u)
		if err != nil {
			return c, nil, fmt.Errorf("client: %w", err)
		}
		if seen[n] {
			return c, nil, fmt.Errorf("client: duplicate endpoint %q", n)
		}
		seen[n] = true
		endpoints = append(endpoints, n)
	}
	c.BaseURL = endpoints[0]
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 5
	}
	if c.MaxAttempts < 1 {
		return c, nil, errors.New("client: MaxAttempts must be >= 1")
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sleeper == nil {
		c.Sleeper = realSleeper{}
	}
	return c, endpoints, nil
}

// Client calls the serving API. Construct with New; safe for concurrent
// use.
type Client struct {
	cfg Config

	// endpoints is the normalized endpoint list; cur indexes the
	// current pick-first choice. A retryable failure rotates cur so
	// subsequent attempts (and calls) land on the next peer.
	endpoints []*endpoint
	cur       atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand

	// maxBody caps one response body (maxResponseBytes).
	maxBody int64
}

// New builds a client from the config.
func New(cfg Config) (*Client, error) {
	cfg, endpoints, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		maxBody: maxResponseBytes,
	}
	for _, base := range endpoints {
		c.endpoints = append(c.endpoints, &endpoint{base: base})
	}
	return c, nil
}

// Endpoint returns the base URL the next call will try first.
func (c *Client) Endpoint() string {
	return c.endpoints[int(c.cur.Load())%len(c.endpoints)].base
}

// endpoint is one server root and the request URLs built on it so far.
type endpoint struct {
	base string

	// urls maps a request path to base+path, parsed. It is replaced,
	// never changed, so readers load it without a lock; mu orders the
	// writers. The paths are the client's own constants, so it stays
	// a handful of entries.
	urls atomic.Pointer[map[string]*url.URL]
	mu   sync.Mutex
}

// url returns base+path parsed, parsing each path once. Requests share
// the returned URL, which nothing changes: net/http only reads a
// request's URL.
func (e *endpoint) url(path string) (*url.URL, error) {
	if m := e.urls.Load(); m != nil {
		if u, ok := (*m)[path]; ok {
			return u, nil
		}
	}
	u, err := url.Parse(e.base + path)
	if err != nil {
		return nil, err
	}
	// As http.NewRequest does: a host with an empty port drops the colon.
	u.Host = strings.TrimSuffix(u.Host, ":")
	e.mu.Lock()
	defer e.mu.Unlock()
	m := map[string]*url.URL{path: u}
	if old := e.urls.Load(); old != nil {
		for p, v := range *old {
			m[p] = v
		}
	}
	e.urls.Store(&m)
	return u, nil
}

// failover rotates away from the endpoint at index from, if it is still
// current. The compare-and-swap makes concurrent calls that fail
// against the same peer advance the cursor once, not once each.
func (c *Client) failover(from int64) {
	if len(c.endpoints) > 1 {
		c.cur.CompareAndSwap(from, (from+1)%int64(len(c.endpoints)))
	}
}

// APIError is a server-produced error response. Terminal statuses
// (validation 4xx) surface immediately; retryable ones (429, 5xx) only
// after retries are exhausted, wrapped in *RetryError.
type APIError struct {
	Status   int
	Message  string
	Endpoint string

	// retryAfter is the server's Retry-After hint, when present; the
	// retry loop uses it as a floor under the jittered backoff.
	retryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: %s: server returned %d: %s", e.Endpoint, e.Status, e.Message)
}

// Retryable reports whether the status signals a transient condition an
// idempotent request may retry: overload (429), upstream-style 5xx, and
// timeouts. Validation failures are permanent — the same body will fail
// the same way.
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// TransportError is a failed attempt that produced no usable response:
// connection refused/reset, truncated or undecodable body. Always
// retryable — the request is idempotent, and a response that never
// arrived committed nothing.
type TransportError struct {
	Endpoint string
	Err      error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("client: %s: %v", e.Endpoint, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// RetryError reports that every allowed attempt failed (or the deadline
// ran out between attempts). Last is the final attempt's error; Unwrap
// exposes it so errors.Is/As reach through.
type RetryError struct {
	Endpoint string
	Attempts int
	Last     error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("client: %s: gave up after %d attempt(s): %v", e.Endpoint, e.Attempts, e.Last)
}

func (e *RetryError) Unwrap() error { return e.Last }

// retryable classifies one attempt's error.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Retryable()
	}
	var te *TransportError
	return errors.As(err, &te)
}

// backoff computes the sleep before attempt n+1 (n counts completed
// attempts, so the first retry gets n = 1): full jitter over the capped
// exponential, floored by the server's Retry-After when one was given.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BaseBackoff << uint(n-1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	jittered := time.Duration(c.rng.Int63n(int64(d))) + 1
	c.mu.Unlock()
	if retryAfter > jittered {
		return retryAfter
	}
	return jittered
}

// retryAfterOf extracts the server's Retry-After floor from a prior
// attempt's error, when it carried one.
func retryAfterOf(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.retryAfter
	}
	return 0
}

// pace waits d (through the configured Sleeper) or until ctx expires,
// whichever is first. It refuses to start a sleep the deadline cannot
// survive, so a tight deadline fails fast instead of burning its budget
// waiting for an attempt that could never be made.
func (c *Client) pace(ctx context.Context, d time.Duration) error {
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < d {
		return context.DeadlineExceeded
	}
	return c.cfg.Sleeper.Sleep(ctx, d)
}

// call is one buffered exchange: marshal once, attempt through retry,
// decode into out on success.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = codec.Marshal(in); err != nil {
			return fmt.Errorf("client: %s: encoding request: %w", path, err)
		}
	}
	return c.retry(ctx, path, func(ctx context.Context, ep *endpoint, id string, n int) (bool, error) {
		return false, c.attempt(ctx, method, ep, path, body, out, id, n)
	})
}

// retry is the one retry loop behind every call, buffered or streamed:
// up to MaxAttempts tries of try against the current pick-first
// endpoint, with jittered backoff floored by the server's Retry-After,
// failover to the next endpoint after each retryable failure, and a
// *RetryError once the attempts or the caller's deadline run out. A
// try that reports itself settled is never repeated, whatever its
// error. Every attempt of one call carries the same X-Request-ID —
// taken from the caller's context when present
// (telemetry.WithRequestID), minted otherwise — so server access logs
// and injected-fault lines can be joined back to this call.
func (c *Client) retry(ctx context.Context, path string, try func(ctx context.Context, ep *endpoint, id string, n int) (settled bool, err error)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	id := telemetry.SanitizeRequestID(telemetry.RequestID(ctx))
	if id == "" {
		id = telemetry.NewRequestID()
	}
	var last error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := c.pace(ctx, c.backoff(attempt-1, retryAfterOf(last))); err != nil {
				return c.giveUp(ctx, &RetryError{Endpoint: path, Attempts: attempt - 1, Last: last}, id)
			}
		}
		idx := c.cur.Load()
		settled, err := try(ctx, c.endpoints[int(idx)%len(c.endpoints)], id, attempt)
		if err == nil {
			return nil
		}
		if settled || !retryable(err) {
			return err
		}
		// Pick-first failover: the current peer failed retryably, so
		// rotate every future attempt — of this call and all others —
		// to the next peer before backing off.
		c.failover(idx)
		last = err
		if c.cfg.Logger != nil {
			c.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "attempt failed",
				slog.String("id", id), slog.String("endpoint", path),
				slog.Int("attempt", attempt), slog.String("error", err.Error()))
		}
		if ctx.Err() != nil {
			// The caller's context, not the server, ended this attempt:
			// no further try can succeed.
			return c.giveUp(ctx, &RetryError{Endpoint: path, Attempts: attempt, Last: last}, id)
		}
	}
	return c.giveUp(ctx, &RetryError{Endpoint: path, Attempts: c.cfg.MaxAttempts, Last: last}, id)
}

// giveUp logs a terminal retry failure and returns it.
func (c *Client) giveUp(ctx context.Context, re *RetryError, id string) error {
	if c.cfg.Logger != nil {
		c.cfg.Logger.LogAttrs(ctx, slog.LevelError, "gave up",
			slog.String("id", id), slog.String("endpoint", re.Endpoint),
			slog.Int("attempts", re.Attempts), slog.String("error", re.Error()))
	}
	return re
}

// Request headers are written by their canonical key; the content type
// is one value slice shared by every request (net/http only reads it).
var (
	keyRequestID    = http.CanonicalHeaderKey(telemetry.HeaderRequestID)
	headerValueJSON = []string{"application/json"}
)

// newRequest builds the request http.NewRequestWithContext would for
// ep's URL of path — the same body, Content-Length and GetBody rewind,
// which the transport needs to retry a request that met a closed
// keep-alive connection — with the request-ID and content-type headers
// set, without parsing the URL again. The body stays an
// io.NopCloser over a *bytes.Reader: net/http recognizes that as an
// in-memory body and sends it with the headers in one write.
func newRequest(ctx context.Context, method string, ep *endpoint, path string, body []byte, id string) (*http.Request, error) {
	u, err := ep.url(path)
	if err != nil {
		return nil, err
	}
	req := &http.Request{
		Method:     method,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, 2),
		Host:       u.Host,
	}
	req.Header[keyRequestID] = []string{id}
	if body != nil { // a marshaled document, never empty
		req.Header["Content-Type"] = headerValueJSON
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
		req.Body, _ = req.GetBody()
	}
	return req.WithContext(ctx), nil
}

// send is the wire step every attempt shares: build the request with
// its request-ID and content-type headers, issue it, and record the
// response's status, cache and fault headers in a. It returns the
// response only for a 200, whose body the caller reads and closes;
// any other status comes back as the *APIError its body describes.
func (c *Client) send(ctx context.Context, method string, ep *endpoint, path string, body []byte, id string, a *Attempt) (*http.Response, error) {
	req, err := newRequest(ctx, method, ep, path, body, id)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", path, err)
	}
	res, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, &TransportError{Endpoint: path, Err: err}
	}
	a.Status = res.StatusCode
	a.Cache = res.Header.Get("X-Heterosim-Cache")
	a.Fault = res.Header.Get("X-Fault-Injected")
	if res.StatusCode == http.StatusOK {
		return res, nil
	}
	defer res.Body.Close()
	buf, err := c.readBody(res, path)
	if err != nil {
		return nil, err
	}
	defer buf.free()
	return nil, apiErrorFrom(res, buf.Bytes(), path)
}

// attempt is one buffered wire exchange against ep; n is the 1-based
// attempt number, passed through to the OnAttempt observer.
func (c *Client) attempt(ctx context.Context, method string, ep *endpoint, path string, body []byte, out any, id string, n int) (err error) {
	a := Attempt{Endpoint: path, N: n}
	if c.cfg.OnAttempt != nil {
		defer func() {
			a.Err = err
			c.cfg.OnAttempt(ctx, a)
		}()
	}
	res, err := c.send(ctx, method, ep, path, body, id, &a)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	buf, err := c.readBody(res, path)
	if err != nil {
		return err
	}
	defer buf.free()
	if out == nil {
		return nil
	}
	if err := codec.Decode(buf.Bytes(), out); err != nil {
		// A 200 with an undecodable body is a truncated/corrupted
		// transfer, not a model error: retry it.
		return &TransportError{Endpoint: path, Err: fmt.Errorf("decoding response: %w", err)}
	}
	return nil
}

// maxResponseBytes caps one response body. Legal requests can ask for
// more (a batch of maximum-size sweeps); they fail with
// ErrResponseTooLarge instead of pulling an unbounded body.
const maxResponseBytes = 64 << 20

// ErrResponseTooLarge reports a response body over the client's size
// limit. It is terminal: the request is a pure function of its body, so
// every retry would draw the same oversize response.
var ErrResponseTooLarge = errors.New("response body too large")

// maxPooledBody is the largest read buffer returned to bodyBufs; a rare
// huge body must not pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

// bodyBuf is a pooled response read buffer. The limited reader lives
// in it so a read allocates nothing.
type bodyBuf struct {
	bytes.Buffer
	lr io.LimitedReader
}

var bodyBufs = sync.Pool{New: func() any { return new(bodyBuf) }}

// free returns b to the pool. Decoded values never alias it: the
// decoder copies every string and raw message out.
func (b *bodyBuf) free() {
	if b.Cap() <= maxPooledBody {
		bodyBufs.Put(b)
	}
}

// readBody reads a whole response body into a pooled buffer, presized
// from Content-Length when the server declared one, and reads at most
// maxBody+1 bytes: a body over maxBody is ErrResponseTooLarge after one
// attempt, never a truncated body that fails to decode and is retried.
// The caller frees the buffer once it has decoded what it needs.
func (c *Client) readBody(res *http.Response, path string) (*bodyBuf, error) {
	if res.ContentLength > c.maxBody {
		return nil, c.tooLarge(path)
	}
	b := bodyBufs.Get().(*bodyBuf)
	b.Reset()
	if res.ContentLength > 0 {
		b.Grow(int(res.ContentLength) + bytes.MinRead)
	}
	b.lr = io.LimitedReader{R: res.Body, N: c.maxBody + 1}
	_, err := b.ReadFrom(&b.lr)
	b.lr.R = nil
	switch {
	case err != nil:
		b.free()
		// Truncated or reset mid-body: idempotent, so retryable.
		return nil, &TransportError{Endpoint: path, Err: err}
	case int64(b.Len()) > c.maxBody:
		b.free()
		return nil, c.tooLarge(path)
	}
	return b, nil
}

func (c *Client) tooLarge(path string) error {
	return fmt.Errorf("client: %s: %w: over the %d-byte limit", path, ErrResponseTooLarge, c.maxBody)
}

// apiErrorFrom builds the *APIError for a non-200 response: the JSON
// error message when the body carries one, the raw body otherwise,
// plus the server's Retry-After hint. Shared by the buffered and
// streaming attempt paths so error decoding can never drift.
func apiErrorFrom(res *http.Response, payload []byte, path string) *APIError {
	ae := &APIError{Status: res.StatusCode, Endpoint: path}
	var msg struct {
		Error string `json:"error"`
	}
	if codec.Decode(payload, &msg) == nil && msg.Error != "" {
		ae.Message = msg.Error
	} else {
		ae.Message = strings.TrimSpace(string(payload))
	}
	if ra := res.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			ae.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// post runs one typed POST call through the shared retry path: every
// endpoint method below is this one generic call instantiated at its
// request/response pair, so retry, backoff, and error classification
// can never drift between endpoints.
func post[Req, Resp any](ctx context.Context, c *Client, path string, req Req) (*Resp, error) {
	var resp Resp
	if err := c.call(ctx, http.MethodPost, path, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// get is post's body-less GET counterpart.
func get[Resp any](ctx context.Context, c *Client, path string) (*Resp, error) {
	var resp Resp
	if err := c.call(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Optimize evaluates one design point (POST /v1/optimize).
func (c *Client) Optimize(ctx context.Context, req server.OptimizeRequest) (*server.OptimizeResponse, error) {
	return post[server.OptimizeRequest, server.OptimizeResponse](ctx, c, "/v1/optimize", req)
}

// Sweep evaluates an (f x budget-scale) grid (POST /v1/sweep).
func (c *Client) Sweep(ctx context.Context, req server.SweepRequest) (*server.SweepResponse, error) {
	return post[server.SweepRequest, server.SweepResponse](ctx, c, "/v1/sweep", req)
}

// Project computes ITRS trajectory projections (POST /v1/project).
func (c *Client) Project(ctx context.Context, req server.ProjectRequest) (*server.ProjectResponse, error) {
	return post[server.ProjectRequest, server.ProjectResponse](ctx, c, "/v1/project", req)
}

// Scenario runs a Section 6.2 study (POST /v1/scenario).
func (c *Client) Scenario(ctx context.Context, req server.ScenarioRequest) (*server.ScenarioResponse, error) {
	return post[server.ScenarioRequest, server.ScenarioResponse](ctx, c, "/v1/scenario", req)
}

// Sensitivity profiles elasticities and a Monte Carlo speedup interval
// for one design point (POST /v1/sensitivity).
func (c *Client) Sensitivity(ctx context.Context, req server.SensitivityRequest) (*server.SensitivityResponse, error) {
	return post[server.SensitivityRequest, server.SensitivityResponse](ctx, c, "/v1/sensitivity", req)
}

// Ablation runs the three configuration ablations at one node
// (POST /v1/ablation).
func (c *Client) Ablation(ctx context.Context, req server.AblationRequest) (*server.AblationResponse, error) {
	return post[server.AblationRequest, server.AblationResponse](ctx, c, "/v1/ablation", req)
}

// Version fetches the server build identity (GET /v1/version).
func (c *Client) Version(ctx context.Context) (*version.Info, error) {
	return get[version.Info](ctx, c, "/v1/version")
}

// Models fetches the server's model-backend registry (GET /v1/models):
// every backend's capabilities and parameters plus the default name,
// so callers can discover what the `model` request field accepts.
func (c *Client) Models(ctx context.Context) (*server.ModelsResponse, error) {
	return get[server.ModelsResponse](ctx, c, "/v1/models")
}

// Metrics fetches the server counters (GET /metrics).
func (c *Client) Metrics(ctx context.Context) (*server.Metrics, error) {
	return get[server.Metrics](ctx, c, "/metrics")
}

// Healthz checks liveness (GET /healthz).
func (c *Client) Healthz(ctx context.Context) error {
	var resp struct {
		Status string `json:"status"`
	}
	if err := c.call(ctx, http.MethodGet, "/healthz", nil, &resp); err != nil {
		return err
	}
	if resp.Status != "ok" {
		return &APIError{Status: http.StatusOK, Message: "status " + resp.Status, Endpoint: "/healthz"}
	}
	return nil
}
