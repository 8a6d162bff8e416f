package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/calcm/heterosim/internal/server"
	"github.com/calcm/heterosim/internal/telemetry"
)

// optimizeBody is a minimal /v1/optimize request.
func optimizeBody() server.OptimizeRequest {
	return server.OptimizeRequest{Workload: "generic", F: 0.9}
}

// okOptimizeJSON is a syntactically valid optimize response payload.
const okOptimizeJSON = `{"workload":"generic","budgets":{},"point":{}}`

func newTestClient(t *testing.T, url string, mutate func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		BaseURL:     url,
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing BaseURL must fail")
	}
	if _, err := New(Config{BaseURL: "http://x", MaxAttempts: -1}); err == nil {
		t.Error("negative MaxAttempts must fail")
	}
}

// TestRetriesTransientThenSucceeds: 503s give way to a 200 within the
// attempt budget and the caller never sees the failures.
func TestRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(okOptimizeJSON))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	resp, err := c.Optimize(context.Background(), optimizeBody())
	if err != nil {
		t.Fatalf("Optimize = %v, want success on third attempt", err)
	}
	if resp.Workload != "generic" {
		t.Errorf("resp.Workload = %q", resp.Workload)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
}

// TestTerminal400NoRetry: validation failures surface immediately as
// *APIError with exactly one attempt made.
func TestTerminal400NoRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"f must be in [0, 1]"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	_, err := c.Optimize(context.Background(), optimizeBody())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != http.StatusBadRequest || ae.Message != "f must be in [0, 1]" {
		t.Errorf("APIError = %+v", ae)
	}
	if ae.Retryable() {
		t.Error("a 400 must not be retryable")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want exactly 1", got)
	}
}

// TestRetryExhaustionWrapsLastError: persistent 500s exhaust the budget
// and come back as *RetryError wrapping the final *APIError.
func TestRetryExhaustionWrapsLastError(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	_, err := c.Optimize(context.Background(), optimizeBody())
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryError", err)
	}
	if re.Attempts != 4 {
		t.Errorf("Attempts = %d, want the full budget of 4", re.Attempts)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Errorf("RetryError must unwrap to the last *APIError, got %v", err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("server saw %d calls, want 4", got)
	}
}

// recordingSleeper captures every sleep the retry loop requests without
// actually waiting, so backoff tests are instant and can assert the
// exact schedule instead of lower-bounding wall time.
type recordingSleeper struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (s *recordingSleeper) Sleep(ctx context.Context, d time.Duration) error {
	s.mu.Lock()
	s.sleeps = append(s.sleeps, d)
	s.mu.Unlock()
	return ctx.Err()
}

func (s *recordingSleeper) recorded() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.sleeps...)
}

// TestExactBackoffSchedule replays the client's jitter stream with the
// same seed and asserts the retry loop requests exactly the schedule
// the config implies: full jitter in (0, min(MaxBackoff, Base<<n)],
// drawn from the seeded RNG, with no sleep before the first attempt.
// The fake sleeper makes the whole test instant.
func TestExactBackoffSchedule(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	const (
		seed        = 42
		maxAttempts = 5
		base        = 100 * time.Millisecond
		cap         = 300 * time.Millisecond
	)
	sl := &recordingSleeper{}
	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.Seed = seed
		cfg.MaxAttempts = maxAttempts
		cfg.BaseBackoff = base
		cfg.MaxBackoff = cap
		cfg.Sleeper = sl
	})
	if _, err := c.Optimize(context.Background(), optimizeBody()); err == nil {
		t.Fatal("want retry exhaustion against a permanent 500")
	}
	if got := calls.Load(); got != maxAttempts {
		t.Fatalf("server saw %d calls, want %d", got, maxAttempts)
	}

	// Replay the schedule: attempt n's pre-sleep draws from the same
	// seeded stream the client uses, over the capped exponential.
	rng := rand.New(rand.NewSource(seed))
	var want []time.Duration
	for n := 1; n < maxAttempts; n++ {
		d := base << uint(n-1)
		if d > cap || d <= 0 {
			d = cap
		}
		want = append(want, time.Duration(rng.Int63n(int64(d)))+1)
	}
	got := sl.recorded()
	if len(got) != len(want) {
		t.Fatalf("recorded %d sleeps (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v (full schedule %v)", i, got[i], want[i], want)
		}
		bound := base << uint(i)
		if bound > cap || bound <= 0 {
			bound = cap
		}
		if got[i] <= 0 || got[i] > bound {
			t.Errorf("sleep %d = %v outside (0, %v]", i, got[i], bound)
		}
	}
}

// TestRetryAfterIsFloor: a Retry-After hint larger than the jittered
// backoff replaces it — the retry loop requests exactly the server's
// floor. The fake sleeper keeps the 7-second hint instant.
func TestRetryAfterIsFloor(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(okOptimizeJSON))
	}))
	defer ts.Close()

	sl := &recordingSleeper{}
	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.MaxAttempts = 2
		cfg.Sleeper = sl
	})
	if _, err := c.Optimize(context.Background(), optimizeBody()); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
	got := sl.recorded()
	if len(got) != 1 || got[0] != 7*time.Second {
		t.Errorf("sleeps = %v, want exactly the 7s Retry-After floor", got)
	}
}

// TestOnAttemptObserver: the per-attempt observer sees every wire
// attempt with its status and cache header, in order, under the
// caller's context.
func TestOnAttemptObserver(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("X-Heterosim-Cache", "hit")
		w.Write([]byte(okOptimizeJSON))
	}))
	defer ts.Close()

	type ctxKey struct{}
	var mu sync.Mutex
	var seen []Attempt
	var ctxOK = true
	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.Sleeper = &recordingSleeper{}
		cfg.OnAttempt = func(ctx context.Context, a Attempt) {
			mu.Lock()
			defer mu.Unlock()
			if ctx.Value(ctxKey{}) != "tagged" {
				ctxOK = false
			}
			seen = append(seen, a)
		}
	})
	ctx := context.WithValue(context.Background(), ctxKey{}, "tagged")
	if _, err := c.Optimize(ctx, optimizeBody()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !ctxOK {
		t.Error("observer did not receive the caller's context")
	}
	if len(seen) != 2 {
		t.Fatalf("observer saw %d attempts, want 2: %+v", len(seen), seen)
	}
	if seen[0].N != 1 || seen[0].Status != http.StatusServiceUnavailable || seen[0].Err == nil {
		t.Errorf("attempt 1 = %+v, want a failed 503", seen[0])
	}
	if seen[1].N != 2 || seen[1].Status != http.StatusOK || seen[1].Cache != "hit" || seen[1].Err != nil {
		t.Errorf("attempt 2 = %+v, want a clean 200 with cache=hit", seen[1])
	}
	if seen[0].Endpoint != "/v1/optimize" {
		t.Errorf("Endpoint = %q", seen[0].Endpoint)
	}
}

// TestOneRequestIDPerCall: every attempt of one call carries the same
// X-Request-ID, taken from the caller's context when it sets one and
// minted once otherwise, for buffered calls and for a stream whose
// establishment is retried. The observer sees each stream attempt's
// number and status.
func TestOneRequestIDPerCall(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		ids   []string
		calls atomic.Int32
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids = append(ids, r.Header.Get(telemetry.HeaderRequestID))
		mu.Unlock()
		if calls.Add(1)%3 != 0 {
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	var attempts []Attempt
	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.Sleeper = &recordingSleeper{}
		cfg.OnAttempt = func(_ context.Context, a Attempt) {
			mu.Lock()
			attempts = append(attempts, a)
			mu.Unlock()
		}
	})
	// drain returns the IDs and attempts recorded since the last call.
	drain := func() ([]string, []Attempt) {
		mu.Lock()
		defer mu.Unlock()
		got, seen := ids, attempts
		ids, attempts = nil, nil
		return got, seen
	}
	sameID := func(name string, got []string, want string) {
		t.Helper()
		if len(got) != 3 {
			t.Fatalf("%s: server saw %d attempts, want 3", name, len(got))
		}
		for i, id := range got {
			if id == "" || id != got[0] || (want != "" && id != want) {
				t.Errorf("%s: attempt %d carried X-Request-ID %q, want %q on all: %q", name, i+1, id, want, got)
			}
		}
	}

	if _, err := c.Sweep(telemetry.WithRequestID(context.Background(), "pin-buffered"), sweepReq()); err != nil {
		t.Fatal(err)
	}
	got, _ := drain()
	sameID("buffered, caller ID", got, "pin-buffered")

	if _, err := c.Sweep(context.Background(), sweepReq()); err != nil {
		t.Fatal(err)
	}
	got, _ = drain()
	sameID("buffered, minted ID", got, "")

	for _, tc := range []struct{ name, id string }{{"stream, caller ID", "pin-stream"}, {"stream, minted ID", ""}} {
		ctx := telemetry.WithRequestID(context.Background(), tc.id)
		if _, err := c.SweepStream(ctx, sweepReq(), func(server.SweepPointJSON) error { return nil }); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, seen := drain()
		sameID(tc.name, got, tc.id)
		wantStatus := []int{http.StatusServiceUnavailable, http.StatusServiceUnavailable, http.StatusOK}
		if len(seen) != len(wantStatus) {
			t.Fatalf("%s: observer saw %d attempts, want %d", tc.name, len(seen), len(wantStatus))
		}
		for i, a := range seen {
			if a.N != i+1 || a.Status != wantStatus[i] || a.Endpoint != sweepStreamPath {
				t.Errorf("%s: attempt %d = %+v, want N=%d status %d", tc.name, i+1, a, i+1, wantStatus[i])
			}
		}
	}
}

// TestTruncatedBodyRetried: a 200 whose body dies mid-transfer is a
// TransportError and gets retried to success.
func TestTruncatedBodyRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Declare more bytes than sent, then abort: unexpected EOF.
			w.Header().Set("Content-Length", strconv.Itoa(len(okOptimizeJSON)))
			w.Write([]byte(okOptimizeJSON[:10]))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		w.Write([]byte(okOptimizeJSON))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	if _, err := c.Optimize(context.Background(), optimizeBody()); err != nil {
		t.Fatalf("Optimize = %v, want truncated first attempt retried", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d calls, want 2", got)
	}
}

// TestGarbage200Retried: a 200 with an undecodable body is treated as a
// corrupted transfer, not a terminal failure.
func TestGarbage200Retried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Write([]byte(`{"f": 0.9, "winn`)) // valid transfer, broken JSON
			return
		}
		w.Write([]byte(okOptimizeJSON))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	if _, err := c.Optimize(context.Background(), optimizeBody()); err != nil {
		t.Fatalf("Optimize = %v, want decode failure retried", err)
	}
}

// TestDeadlineStopsRetries: with the server permanently down, a short
// caller deadline returns a RetryError promptly instead of sleeping
// through backoffs the deadline cannot survive.
func TestDeadlineStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.MaxAttempts = 100
		cfg.BaseBackoff = 50 * time.Millisecond
		cfg.MaxBackoff = time.Second
	})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Optimize(ctx, optimizeBody())
	took := time.Since(start)
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryError", err)
	}
	if re.Attempts < 1 || re.Attempts >= 100 {
		t.Errorf("Attempts = %d, want a handful bounded by the deadline", re.Attempts)
	}
	if took > time.Second {
		t.Errorf("gave up after %v, want well under a second", took)
	}
}

// TestConnectionRefusedIsTransport: a dead endpoint yields a RetryError
// unwrapping to *TransportError.
func TestConnectionRefusedIsTransport(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close() // nothing listens here any more

	c := newTestClient(t, url, func(cfg *Config) { cfg.MaxAttempts = 2 })
	_, err := c.Optimize(context.Background(), optimizeBody())
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransportError inside the RetryError", err)
	}
}

// TestGetEndpoints exercises Version, Metrics, and Healthz against a
// stub server.
func TestGetEndpoints(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"module": "m", "version": "v1.2.3"})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"uptimeSeconds": 1}`))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	ctx := context.Background()
	if v, err := c.Version(ctx); err != nil || v.Version != "v1.2.3" {
		t.Errorf("Version = (%+v, %v)", v, err)
	}
	if _, err := c.Metrics(ctx); err != nil {
		t.Errorf("Metrics = %v", err)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Errorf("Healthz = %v", err)
	}
}

// TestOversizeResponseTerminal: a body over the size limit fails after
// one attempt with an error naming the limit, whether the server
// declares its length or streams it chunked. A body of exactly the
// limit still decodes.
func TestOversizeResponseTerminal(t *testing.T) {
	const limit = 4 << 10
	// bodyOf pads a valid optimize response with spaces to n bytes.
	bodyOf := func(n int) []byte {
		return append([]byte(okOptimizeJSON), bytes.Repeat([]byte{' '}, n-len(okOptimizeJSON))...)
	}
	for _, tc := range []struct {
		name    string
		size    int
		declare bool
		wantErr bool
	}{
		{"declared over", limit + 1, true, true},
		{"chunked over", limit + 1, false, true},
		{"declared at limit", limit, true, false},
		{"chunked at limit", limit, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				body := bodyOf(tc.size)
				if tc.declare {
					w.Header().Set("Content-Length", strconv.Itoa(len(body)))
				} else {
					w.(http.Flusher).Flush() // commit to chunked framing
				}
				w.Write(body)
			}))
			defer ts.Close()
			var attempts atomic.Int32
			c := newTestClient(t, ts.URL, func(cfg *Config) {
				cfg.OnAttempt = func(context.Context, Attempt) { attempts.Add(1) }
			})
			c.maxBody = limit
			_, err := c.Optimize(context.Background(), optimizeBody())
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("Optimize = %v, want success", err)
				}
				return
			}
			if !errors.Is(err, ErrResponseTooLarge) {
				t.Fatalf("Optimize = %v, want ErrResponseTooLarge", err)
			}
			if !strings.Contains(err.Error(), strconv.Itoa(limit)) {
				t.Errorf("error %q does not name the %d-byte limit", err, limit)
			}
			var re *RetryError
			if errors.As(err, &re) {
				t.Errorf("oversize body was retried: %v", err)
			}
			if got := calls.Load(); got != 1 {
				t.Errorf("server saw %d calls, want 1", got)
			}
			if got := attempts.Load(); got != 1 {
				t.Errorf("OnAttempt saw %d attempts, want 1", got)
			}
		})
	}
}

// TestNewRequestAllocs pins what building one attempt's request costs
// once its URL is cached: the header map and its table, the request-ID
// value, the body reader, its NopCloser and its rewind closure, and the
// request itself — no URL parse and no header canonicalization
// (go1.24). It also checks the request is the one
// http.NewRequestWithContext builds, down to the body's type, which
// decides whether net/http writes the headers and body together.
func TestNewRequestAllocs(t *testing.T) {
	c, err := New(Config{BaseURL: "127.0.0.1:8080"})
	if err != nil {
		t.Fatal(err)
	}
	ep, body := c.endpoints[0], []byte(`{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`)
	ctx := context.Background()
	req, err := newRequest(ctx, http.MethodPost, ep, "/v1/optimize", body, "pin-id")
	if err != nil {
		t.Fatal(err)
	}
	want, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://127.0.0.1:8080/v1/optimize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want.Header.Set("X-Request-ID", "pin-id")
	want.Header.Set("Content-Type", "application/json")
	if req.Method != want.Method || req.URL.String() != want.URL.String() || req.Host != want.Host ||
		req.Proto != want.Proto || req.ContentLength != want.ContentLength || req.Context() != ctx ||
		!reflect.DeepEqual(req.Header, want.Header) || reflect.TypeOf(req.Body) != reflect.TypeOf(want.Body) {
		t.Errorf("request %+v, want %+v", req, want)
	}
	for i := 0; i < 2; i++ { // the body, then the rewound body
		got, err := io.ReadAll(req.Body)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("body read %d = %q, %v", i, got, err)
		}
		if req.Body, err = req.GetBody(); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		return // allocation counts differ under -race
	}
	const pin = 7
	got := testing.AllocsPerRun(100, func() {
		if _, err := newRequest(ctx, http.MethodPost, ep, "/v1/optimize", body, "pin-id"); err != nil {
			t.Fatal(err)
		}
	})
	if got > pin {
		t.Errorf("newRequest allocates %.0f times, want <= %d", got, pin)
	}
}
