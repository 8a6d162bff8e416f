package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/calcm/heterosim/internal/engine"
)

// panicOp is a test-only buffered op that panics in Prepare or in its
// evaluation while panics is positive, counting down, and otherwise
// answers {"ok":true} under one fixed key.
type panicOp struct {
	inPrepare bool
	panics    atomic.Int32
	prepares  atomic.Int32
	evals     atomic.Int32
}

func (*panicOp) Name() string { return "panicky" }
func (*panicOp) Path() string { return "/v1/panicky" }

func (o *panicOp) Prepare([]byte, engine.Env) (string, func(context.Context) ([]byte, error), error) {
	o.prepares.Add(1)
	if o.inPrepare && o.panics.Add(-1) >= 0 {
		panic("boom in prepare")
	}
	return "/v1/panicky\x00{}", func(context.Context) ([]byte, error) {
		o.evals.Add(1)
		if !o.inPrepare && o.panics.Add(-1) >= 0 {
			panic("boom in eval")
		}
		return []byte(`{"ok":true}`), nil
	}, nil
}

// panicStream is a test-only stream op that emits one line and flushes
// before panicking when afterLine is set, and panics at once otherwise.
type panicStream struct{ afterLine bool }

func (*panicStream) Name() string { return "panicky" }
func (*panicStream) Path() string { return "/v1/panicky/stream" }

func (o *panicStream) PrepareStream([]byte, engine.Env) (engine.StreamFunc, error) {
	return func(_ context.Context, e engine.StreamEmitter) error {
		if o.afterLine {
			if err := e.Emit([]byte(`{"header":true}`)); err != nil {
				return err
			}
			if err := e.Flush(); err != nil {
				return err
			}
		}
		panic("boom in stream")
	}, nil
}

// panicRig serves serve through the server's own observe middleware,
// with the access and error log captured.
type panicRig struct {
	s   *Server
	h   http.Handler
	log *bytes.Buffer
}

func newPanicRig(t *testing.T, serve func(s *Server, w http.ResponseWriter, r *http.Request)) *panicRig {
	t.Helper()
	log := new(bytes.Buffer)
	s := newTestServer(t, Config{Logger: slog.New(slog.NewJSONHandler(log, nil))})
	return &panicRig{s: s, log: log, h: s.observe(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve(s, w, r)
	}))}
}

func (p *panicRig) post(id string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/panicky", strings.NewReader(`{}`))
	req.Header.Set("X-Request-ID", id)
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec
}

// panicLines returns the logged "panic recovered" records.
func (p *panicRig) panicLines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(p.log.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] == "panic recovered" {
			out = append(out, rec)
		}
	}
	return out
}

// checkPanicReported checks that one panic was logged for request id,
// with a stack, and that both /metrics formats count want panics.
func checkPanicReported(t *testing.T, p *panicRig, id string, want int) {
	t.Helper()
	lines := p.panicLines(t)
	if len(lines) != want {
		t.Fatalf("%d panic log lines, want %d:\n%s", len(lines), want, p.log)
	}
	last := lines[len(lines)-1]
	if last["id"] != id {
		t.Errorf("panic logged with id %v, want %q", last["id"], id)
	}
	if stack, _ := last["stack"].(string); !strings.Contains(stack, "panic_test.go") {
		t.Errorf("panic log carries no stack through the test op: %q", stack)
	}
	if got := p.s.Snapshot().Panics; got != int64(want) {
		t.Errorf("Snapshot().Panics = %d, want %d", got, want)
	}
	rec := do(t, p.s, http.MethodGet, "/metrics?format=prometheus", "")
	if got := promSeries(t, rec.Body.String())["heterosimd_panics_total"]; got != float64(want) {
		t.Errorf("heterosimd_panics_total = %v, want %d", got, want)
	}
	rec = do(t, p.s, http.MethodGet, "/metrics", "")
	var doc struct{ Panics int64 }
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Panics != int64(want) {
		t.Errorf("JSON /metrics panics = %d (%v), want %d", doc.Panics, err, want)
	}
}

// TestPanicInPrepareIs500 covers the decode step, which runs on the
// net/http goroutine outside any cache leader: a panicking Prepare
// answers 500 instead of dropping the connection, and the next request
// for the same body runs Prepare afresh.
func TestPanicInPrepareIs500(t *testing.T) {
	op := &panicOp{inPrepare: true}
	op.panics.Store(2)
	p := newPanicRig(t, func(s *Server, w http.ResponseWriter, r *http.Request) { s.serveOp(w, r, op, 0) })
	for i, id := range []string{"prep-1", "prep-2"} {
		rec := p.post(id)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "boom in prepare") {
			t.Fatalf("request %d: %d %s, want a 500 naming the panic", i+1, rec.Code, rec.Body)
		}
		checkPanicReported(t, p, id, i+1)
	}
	if rec := p.post("prep-3"); rec.Code != http.StatusOK || rec.Body.String() != `{"ok":true}` {
		t.Fatalf("after the panics: %d %s", rec.Code, rec.Body)
	}
	if got := op.prepares.Load(); got != 3 {
		t.Errorf("Prepare ran %d times, want 3", got)
	}
	if rec := do(t, p.s, http.MethodPost, "/v1/optimize", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`); rec.Code != http.StatusOK {
		t.Errorf("a real op after the panics: %d %s", rec.Code, rec.Body)
	}
}

// TestPanicInEvalIs500AndFreesKey covers the evaluation inside the
// cache leader: a 500, counted and logged like a Prepare panic, and the
// key is not poisoned — the next request evaluates afresh and is
// cached.
func TestPanicInEvalIs500AndFreesKey(t *testing.T) {
	op := &panicOp{}
	op.panics.Store(1)
	p := newPanicRig(t, func(s *Server, w http.ResponseWriter, r *http.Request) { s.serveOp(w, r, op, 0) })
	if rec := p.post("eval-1"); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "boom in eval") {
		t.Fatalf("%d %s, want a 500 naming the panic", rec.Code, rec.Body)
	}
	checkPanicReported(t, p, "eval-1", 1)
	for i, want := range []string{"miss", "hit"} {
		rec := p.post("eval-after")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Heterosim-Cache") != want {
			t.Fatalf("request %d after the panic: %d %q %s, want 200 %s", i+1, rec.Code, rec.Header().Get("X-Heterosim-Cache"), rec.Body, want)
		}
	}
	if got := op.evals.Load(); got != 2 {
		t.Errorf("evaluated %d times, want 2 (the panic, then one fresh miss)", got)
	}
}

// TestPanicInStream covers the stream emitter: before any line the
// status is still free and the answer is a 500; after a flushed line it
// is an in-band error line under the 200 already sent.
func TestPanicInStream(t *testing.T) {
	for _, tc := range []struct {
		name      string
		afterLine bool
	}{{"before any line", false}, {"after a line", true}} {
		t.Run(tc.name, func(t *testing.T) {
			op := &panicStream{afterLine: tc.afterLine}
			p := newPanicRig(t, func(s *Server, w http.ResponseWriter, r *http.Request) { s.serveStream(w, r, op) })
			for i, id := range []string{"stream-1", "stream-2"} {
				rec := p.post(id)
				if !tc.afterLine {
					if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "boom in stream") {
						t.Fatalf("%d %s, want a 500 naming the panic", rec.Code, rec.Body)
					}
				} else {
					lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
					if rec.Code != http.StatusOK || len(lines) != 2 || lines[0] != `{"header":true}` {
						t.Fatalf("%d %q, want the header line then an error line", rec.Code, rec.Body)
					}
					var line SweepStreamError
					if err := json.Unmarshal([]byte(lines[1]), &line); err != nil || !strings.Contains(line.Error, "boom in stream") {
						t.Fatalf("in-band line %q (%v), want an error naming the panic", lines[1], err)
					}
				}
				checkPanicReported(t, p, id, i+1)
			}
			if got := p.s.Snapshot().Admission.Inflight; got != 0 {
				t.Errorf("%d admission slots still held after the panics", got)
			}
		})
	}
}
