package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/calcm/heterosim/internal/engine"
)

// brokenWriter is an http.ResponseWriter whose Write starts failing
// after okWrites successes — a client that went away mid-stream.
type brokenWriter struct {
	header   http.Header
	okWrites int
	writes   int
	status   int
}

func (w *brokenWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *brokenWriter) WriteHeader(status int) { w.status = status }

func (w *brokenWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.okWrites {
		return 0, errors.New("broken pipe")
	}
	return len(p), nil
}

// TestStreamEmitterClientGone pins the emitter's client-gone
// discipline: the write that fails marks the emitter dead, and every
// later Emit/Flush reports errStreamClientGone instead of touching the
// connection again.
func TestStreamEmitterClientGone(t *testing.T) {
	e := &streamEmitter{w: &brokenWriter{okWrites: 0}}
	if err := e.Emit([]byte(`{"a":1}`)); err != nil {
		t.Fatalf("Emit into the buffer should not fail: %v", err)
	}
	if err := e.Flush(); !errors.Is(err, errStreamClientGone) {
		t.Fatalf("Flush over a broken writer = %v, want errStreamClientGone", err)
	}
	if !e.dead {
		t.Fatal("a failed write must mark the emitter dead")
	}
	if err := e.Emit([]byte(`{"b":2}`)); !errors.Is(err, errStreamClientGone) {
		t.Errorf("Emit after death = %v, want errStreamClientGone", err)
	}
	if err := e.write(); !errors.Is(err, errStreamClientGone) {
		t.Errorf("write after death = %v, want errStreamClientGone", err)
	}
}

// TestStreamEmitterEmptyFlush: flushing with nothing buffered is a
// no-op, not a zero-byte write (which would force the 200 header early
// on a stream that then wants to fail with a real HTTP status).
func TestStreamEmitterEmptyFlush(t *testing.T) {
	w := &brokenWriter{okWrites: 0}
	e := &streamEmitter{w: w}
	if err := e.Flush(); err != nil {
		t.Fatalf("empty Flush = %v, want nil", err)
	}
	if w.writes != 0 {
		t.Errorf("empty Flush performed %d writes, want 0", w.writes)
	}
}

// TestStreamErrorClassification pins how in-band failures are counted
// and what reaches the wire: the status class writeError would have
// used decides the error counter, and the emitted line is always a
// decodable error object carrying the message a standalone error body
// would.
func TestStreamErrorClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		wantClass string
		wantLine  string
	}{
		{"unclassified is 500-class", errors.New("boom"), "serverError", "boom"},
		{"apiError keeps its status", &apiError{Status: http.StatusUnprocessableEntity, Message: "infeasible"}, "clientError", "infeasible"},
		{"deadline is 504-class", context.DeadlineExceeded, "serverError", "request deadline exceeded"},
		{"cancel is 503-class", context.Canceled, "serverError", "request cancelled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			rec := httptest.NewRecorder()
			e := &streamEmitter{w: rec, started: true}
			s.streamError(context.Background(), "frontier", e, tc.err)
			if got := s.Snapshot().Responses[tc.wantClass]; got != 1 {
				t.Errorf("responses.%s = %d, want 1", tc.wantClass, got)
			}
			var line SweepStreamError
			if err := json.Unmarshal(rec.Body.Bytes(), &line); err != nil || line.Error == "" {
				t.Errorf("in-band line %q is not an error object: %v", rec.Body.String(), err)
			}
			if line.Error != tc.wantLine {
				t.Errorf("in-band error = %q, want %q", line.Error, tc.wantLine)
			}
		})
	}
}

// TestStreamErrorDeadEmitter: when the client is gone the in-band line
// has nowhere to go; streamError must still count and log the failure
// without touching the connection again.
func TestStreamErrorDeadEmitter(t *testing.T) {
	s := newTestServer(t, Config{})
	w := &brokenWriter{okWrites: 0}
	e := &streamEmitter{w: w, started: true, dead: true}
	s.streamError(context.Background(), "frontier", e, errors.New("boom"))
	if got := s.Snapshot().Responses["serverError"]; got != 1 {
		t.Errorf("responses.serverError = %d, want 1", got)
	}
	if w.writes != 0 {
		t.Errorf("dead emitter saw %d writes, want 0", w.writes)
	}
}

// TestFrontierStreamClientGoneMidStream drives the whole pipeline into
// a client that dies after the header frame: the handler must return
// without emitting further frames, counting a success, or panicking.
func TestFrontierStreamClientGoneMidStream(t *testing.T) {
	s := newTestServer(t, Config{})
	w := &brokenWriter{okWrites: 1} // header flush lands, first row write fails
	req := httptest.NewRequest(http.MethodPost, "/v1/frontier/stream",
		strings.NewReader(`{"workload":"MMM","f":0.9,"scenario":1}`))
	s.Handler().ServeHTTP(w, req)
	snap := s.Snapshot().Responses
	if snap["ok"] != 0 {
		t.Errorf("responses.ok = %d, want 0 (the stream never finished)", snap["ok"])
	}
	if snap["serverError"] != 0 || snap["clientError"] != 0 {
		t.Errorf("error counters = (%d, %d), want (0, 0): a vanished client is not a server failure",
			snap["serverError"], snap["clientError"])
	}
	if w.writes < 2 {
		t.Errorf("writer saw %d writes, want at least the header and the failed row", w.writes)
	}
}

// TestFrontierStreamSaturated503: streams always evaluate, so they
// queue at the admission gate like any miss — with the only slot held
// and no queue patience, the stream is refused with a plain HTTP 503
// before any NDJSON starts.
func TestFrontierStreamSaturated503(t *testing.T) {
	s := newTestServer(t, Config{
		MaxInflight:  1,
		MaxQueue:     4,
		QueueTimeout: 5 * time.Millisecond,
	})
	release, status := s.gate.acquire(context.Background())
	if status != 0 {
		t.Fatalf("holding the only slot: status %d", status)
	}
	defer release()
	rec := do(t, s, http.MethodPost, "/v1/frontier/stream", `{"workload":"MMM","f":0.9}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct == "application/x-ndjson" {
		t.Error("a refused stream must not claim to be NDJSON")
	}
}

// TestFrontierStreamDeadlineBeforeHeader: a deadline that expires
// while the evaluation is still running — before any frame is on the
// wire — is a plain HTTP 504, not a 200 with an in-band error.
func TestFrontierStreamDeadlineBeforeHeader(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	rec := do(t, s, http.MethodPost, "/v1/frontier/stream", `{"workload":"MMM","f":0.9,"scenario":1}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", rec.Code, rec.Body.String())
	}
}

// TestErrorClassesAgree: for every error class the standalone error
// body, the batch item's {status, error} and the stream's pre-header
// HTTP error carry the same status and message, because all three come
// from one classifier. No stream op can be infeasible before its
// header, so the 422 stream is the optimize evaluation served through
// the stream pipeline.
func TestErrorClassesAgree(t *testing.T) {
	const (
		frontierBody   = `{"workload":"MMM","f":0.9}`
		invalidSweep   = `{"workload":"bogus","design":{"kind":"sym"},"f":{"values":[0.9]}}`
		infeasibleBody = `{"workload":"MMM","f":0.9,"budgets":{"area":19,"power":0.0001,"bandwidth":57},"design":{"kind":"sym"}}`
	)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	gone, goneCancel := context.WithCancel(context.Background())
	goneCancel()
	saturated := Config{MaxInflight: 1, MaxQueue: 1, QueueTimeout: 5 * time.Millisecond}
	full := Config{MaxInflight: 1, MaxQueue: 1, QueueTimeout: time.Minute}

	infeasibleStream := engine.NewStream("optimize", "/v1/optimize",
		func(req *OptimizeRequest, env engine.Env) (engine.StreamFunc, error) {
			eval, err := buildOptimize(req, env)
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, _ engine.StreamEmitter) error {
				_, err := eval(ctx)
				return err
			}, nil
		})

	cases := []struct {
		name       string
		cfg        Config
		ctx        context.Context
		hold       int    // 1 takes the only admission slot first, 2 also the only queue place
		op, body   string // the standalone request and the batch item
		streamPath string // "" serves body through infeasibleStream
		streamBody string
		want       int
	}{
		{"validation", Config{}, context.Background(), 0, "sweep", invalidSweep,
			"/v1/sweep?stream=ndjson", invalidSweep, http.StatusBadRequest},
		{"infeasible", Config{}, context.Background(), 0, "optimize", infeasibleBody,
			"", infeasibleBody, http.StatusUnprocessableEntity},
		{"queue full", full, context.Background(), 2, "optimize", sampleBodies["optimize"],
			"/v1/frontier/stream", frontierBody, http.StatusTooManyRequests},
		{"queue timeout", saturated, context.Background(), 1, "optimize", sampleBodies["optimize"],
			"/v1/frontier/stream", frontierBody, http.StatusServiceUnavailable},
		{"deadline", Config{}, expired, 0, "sweep", sampleBodies["sweep"],
			"/v1/frontier/stream", frontierBody, http.StatusGatewayTimeout},
		{"cancel", Config{}, gone, 0, "sweep", sampleBodies["sweep"],
			"/v1/frontier/stream", frontierBody, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.cfg)
			if tc.hold > 0 {
				release, status := s.gate.acquire(context.Background())
				if status != 0 {
					t.Fatalf("holding the only slot: status %d", status)
				}
				defer release()
				if tc.hold > 1 {
					qctx, stop := context.WithCancel(context.Background())
					waiter := make(chan struct{})
					go func() {
						defer close(waiter)
						if release, status := s.gate.acquire(qctx); status == 0 {
							release()
						}
					}()
					defer func() { stop(); <-waiter }()
					for s.gate.queued.Load() != 1 {
						time.Sleep(time.Millisecond)
					}
				}
			}

			std := doCtx(t, s, tc.ctx, "/v1/"+tc.op, tc.body)
			var want apiError
			if err := json.Unmarshal(std.Body.Bytes(), &want); err != nil || std.Code != tc.want || want.Message == "" {
				t.Fatalf("standalone %s = %d %s, want %d with an error body", tc.op, std.Code, std.Body, tc.want)
			}

			rec := doCtx(t, s, tc.ctx, "/v1/batch", `{"items":[{"op":"`+tc.op+`","request":`+tc.body+`}]}`)
			var batch BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || len(batch.Items) != 1 {
				t.Fatalf("batch = %d %s", rec.Code, rec.Body)
			}
			if it := batch.Items[0]; it.Status != std.Code || it.Error != want.Message {
				t.Errorf("batch item = {%d, %q}, want {%d, %q}", it.Status, it.Error, std.Code, want.Message)
			}

			var st *httptest.ResponseRecorder
			if tc.streamPath == "" {
				st = httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.streamBody)).WithContext(tc.ctx)
				s.serveStream(st, req, infeasibleStream)
			} else {
				st = doCtx(t, s, tc.ctx, tc.streamPath, tc.streamBody)
			}
			var got apiError
			if err := json.Unmarshal(st.Body.Bytes(), &got); err != nil || st.Code != std.Code || got.Message != want.Message {
				t.Errorf("stream = %d %s, want %d with error %q", st.Code, st.Body, std.Code, want.Message)
			}
		})
	}
}
