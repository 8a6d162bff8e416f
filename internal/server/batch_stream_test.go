package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// streamSweepBody is the small two-axis sweep the stream tests share.
const streamSweepBody = `{"workload":"MMM","design":{"kind":"sym"},"f":{"lo":0.5,"hi":0.99,"steps":5},"areaScale":{"values":[0.5,1,2]}}`

// mustGolden reads a non-regenerable golden: these files pin wire
// contracts (the batch response shape, the NDJSON row schema) that
// clients parse, so there is deliberately no -update path — changing
// them is an API break and must be a conscious edit.
func mustGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("%v (this golden is the wire contract; there is no -update, edit it by hand)", err)
	}
	return b
}

// TestBatchShapeGolden pins the full /v1/batch response — envelope
// keys, item order, per-item status/cache/model/error fields — for a
// deterministic mixed batch: one cold optimize (miss), one unknown op,
// one invalid body.
func TestBatchShapeGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/batch", `{"items":[`+
		`{"op":"optimize","request":{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}},`+
		`{"op":"nosuch","request":{}},`+
		`{"op":"optimize","request":{"workload":"bogus","f":0.9,"design":{"kind":"sym"}}}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	want := mustGolden(t, "batch_shape.golden")
	if got := rec.Body.Bytes(); !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("/v1/batch response drifted from the pinned wire shape:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSweepStreamGolden pins the complete NDJSON stream — header line
// schema, row schema and order, trailer line — for the shared sweep.
func TestSweepStreamGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/sweep?stream=ndjson", streamSweepBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if cc := rec.Header().Get("X-Heterosim-Cache"); cc != "stream" {
		t.Errorf("X-Heterosim-Cache = %q, want stream", cc)
	}
	want := mustGolden(t, "sweep_stream.golden")
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("streamed sweep drifted from the pinned NDJSON contract:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// rawSweepResponse splits a buffered sweep body into its raw parts for
// byte-level comparison with the stream.
type rawSweepResponse struct {
	Workload string            `json:"workload"`
	Node     string            `json:"node"`
	Design   string            `json:"design"`
	Axes     json.RawMessage   `json:"axes"`
	Points   []json.RawMessage `json:"points"`
	Feasible int               `json:"feasible"`
	Best     json.RawMessage   `json:"best"`
	Model    string            `json:"model"`
}

// TestSweepStreamMatchesBuffered is the streamed == buffered property,
// across every model backend: each NDJSON row must be byte-identical
// to the buffered response's corresponding points element, in order,
// and the trailer must carry the same best cell and feasible count.
func TestSweepStreamMatchesBuffered(t *testing.T) {
	for _, backend := range []string{"", "multiamdahl", "multiamdahl-thermal", "sqrtm"} {
		name := backend
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			body := streamSweepBody
			if backend != "" {
				body = strings.Replace(body, `{"workload"`, `{"model":"`+backend+`","workload"`, 1)
			}
			s := newTestServer(t, Config{})
			buf := do(t, s, http.MethodPost, "/v1/sweep", body)
			if buf.Code != http.StatusOK {
				t.Fatalf("buffered status = %d (body %s)", buf.Code, buf.Body)
			}
			var want rawSweepResponse
			if err := json.Unmarshal(buf.Body.Bytes(), &want); err != nil {
				t.Fatal(err)
			}

			st := do(t, s, http.MethodPost, "/v1/sweep?stream=ndjson", body)
			if st.Code != http.StatusOK {
				t.Fatalf("stream status = %d (body %s)", st.Code, st.Body)
			}
			lines := strings.Split(strings.TrimSuffix(st.Body.String(), "\n"), "\n")
			if len(lines) != len(want.Points)+2 {
				t.Fatalf("stream has %d lines, want %d rows + header + trailer", len(lines), len(want.Points))
			}
			var hdr SweepStreamHeader
			if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
				t.Fatal(err)
			}
			if hdr.Workload != want.Workload || hdr.Node != want.Node || hdr.Design != want.Design || hdr.Model != want.Model {
				t.Errorf("header identity = %+v, want %s/%s/%s model %q", hdr, want.Workload, want.Node, want.Design, want.Model)
			}
			for i, p := range want.Points {
				if lines[i+1] != string(p) {
					t.Fatalf("row %d differs from buffered points[%d]:\n got %s\nwant %s", i, i, lines[i+1], p)
				}
			}
			var trailer struct {
				Feasible int             `json:"feasible"`
				Best     json.RawMessage `json:"best"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
				t.Fatal(err)
			}
			if trailer.Feasible != want.Feasible {
				t.Errorf("trailer feasible = %d, want %d", trailer.Feasible, want.Feasible)
			}
			if string(trailer.Best) != string(want.Best) {
				t.Errorf("trailer best = %s, want %s", trailer.Best, want.Best)
			}
		})
	}
}

// TestBatchItemMatchesStandalone: a batch item's response bytes are
// exactly the standalone endpoint's for the same body.
func TestBatchItemMatchesStandalone(t *testing.T) {
	s := newTestServer(t, Config{})
	opt := `{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`
	prj := `{"workload":"MMM","f":0.9}`
	standaloneOpt := do(t, s, http.MethodPost, "/v1/optimize", opt).Body.String()
	standalonePrj := do(t, s, http.MethodPost, "/v1/project", prj).Body.String()

	rec := do(t, s, http.MethodPost, "/v1/batch",
		`{"items":[{"op":"optimize","request":`+opt+`},{"op":"project","request":`+prj+`}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK != 2 || resp.Failed != 0 {
		t.Fatalf("ok/failed = %d/%d, want 2/0", resp.OK, resp.Failed)
	}
	if got := string(resp.Items[0].Response); got != strings.TrimSpace(standaloneOpt) {
		t.Errorf("optimize item bytes differ from standalone:\n got %s\nwant %s", got, standaloneOpt)
	}
	if got := string(resp.Items[1].Response); got != strings.TrimSpace(standalonePrj) {
		t.Errorf("project item bytes differ from standalone:\n got %s\nwant %s", got, standalonePrj)
	}
	// Both landed in the shared cache first, so the batch items are hits.
	for i, it := range resp.Items {
		if it.Cache != "hit" {
			t.Errorf("item %d cache = %q, want hit (standalone call warmed the key)", i, it.Cache)
		}
	}
}

// doCtx is do with the request bound to ctx, so a test can hand the
// server a request whose deadline has already passed or whose client
// has already gone.
func doCtx(t *testing.T, s *Server, ctx context.Context, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestBatchItemDeadlineMatchesStandalone: when the batch's deadline
// passes or its client goes before the fan-out claims an item, the
// item reports what a standalone request stopped the same way answers
// (504 or 503 with the standalone message), never status 0.
func TestBatchItemDeadlineMatchesStandalone(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	gone, goneCancel := context.WithCancel(context.Background())
	goneCancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want int
	}{
		{"deadline", expired, http.StatusGatewayTimeout},
		{"cancel", gone, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			std := doCtx(t, s, tc.ctx, "/v1/sweep", sampleBodies["sweep"])
			var stdErr apiError
			if err := json.Unmarshal(std.Body.Bytes(), &stdErr); err != nil || std.Code != tc.want {
				t.Fatalf("standalone sweep = %d %s, want %d with an error body", std.Code, std.Body, tc.want)
			}
			rec := doCtx(t, s, tc.ctx, "/v1/batch", `{"items":[`+
				`{"op":"optimize","request":`+sampleBodies["optimize"]+`},`+
				`{"op":"sweep","request":`+sampleBodies["sweep"]+`}]}`)
			if rec.Code != http.StatusOK {
				t.Fatalf("batch status = %d (body %s)", rec.Code, rec.Body)
			}
			var resp BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.OK != 0 || resp.Failed != 2 {
				t.Errorf("ok/failed = %d/%d, want 0/2", resp.OK, resp.Failed)
			}
			for _, it := range resp.Items {
				if it.Status != std.Code || it.Error != stdErr.Message {
					t.Errorf("%s item = {%d, %q}, want the standalone {%d, %q}",
						it.Op, it.Status, it.Error, std.Code, stdErr.Message)
				}
			}
		})
	}
}

// TestBatchComputesOnceForIdenticalItems: identical items in one batch
// share a single evaluation through the coalescing cache.
func TestBatchComputesOnceForIdenticalItems(t *testing.T) {
	s := newTestServer(t, Config{})
	var evals atomic.Int32
	s.onEvaluate = func(string) { evals.Add(1) }
	item := `{"op":"optimize","request":{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}}`
	items := item + strings.Repeat(","+item, 7)
	rec := do(t, s, http.MethodPost, "/v1/batch", `{"items":[`+items+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK != 8 {
		t.Fatalf("ok = %d, want 8", resp.OK)
	}
	if got := evals.Load(); got != 1 {
		t.Errorf("evaluations = %d, want 1 (identical items must coalesce)", got)
	}
	for i := 1; i < len(resp.Items); i++ {
		if !bytes.Equal(resp.Items[i].Response, resp.Items[0].Response) {
			t.Errorf("item %d bytes differ from item 0", i)
		}
	}
}

// TestBatchAdmittedOnce: a whole batch of cold distinct items occupies
// exactly one admission slot.
func TestBatchAdmittedOnce(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/batch", `{"items":[`+
		`{"op":"optimize","request":{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}},`+
		`{"op":"optimize","request":{"workload":"MMM","f":0.95,"design":{"kind":"sym"}}},`+
		`{"op":"optimize","request":{"workload":"MMM","f":0.99,"design":{"kind":"sym"}}},`+
		`{"op":"project","request":{"workload":"MMM","f":0.9}}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if got := s.Snapshot().Admission.Accepted; got != 1 {
		t.Errorf("admission accepted = %d, want 1 (one slot per batch)", got)
	}
}

// TestBatchStructural: envelope failures are batch-level, not
// itemized.
func TestBatchStructural(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := do(t, s, http.MethodGet, "/v1/batch", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/batch", `{"items":[]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("empty items status = %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/batch", `{bad`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed status = %d, want 400", rec.Code)
	}
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"op":"optimize","request":{}}`)
	}
	sb.WriteString(`]}`)
	if rec := do(t, s, http.MethodPost, "/v1/batch", sb.String()); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400", rec.Code)
	}
}

// TestBatchCountsOneRequest: a batch is one request in /metrics
// regardless of item count.
func TestBatchCountsOneRequest(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, http.MethodPost, "/v1/batch", `{"items":[`+
		`{"op":"optimize","request":{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}},`+
		`{"op":"project","request":{"workload":"MMM","f":0.9}}]}`)
	m := s.Snapshot()
	if got := m.Requests["batch"]; got != 1 {
		t.Errorf("requests.batch = %d, want 1", got)
	}
	if got := m.Requests["optimize"]; got != 0 {
		t.Errorf("requests.optimize = %d, want 0 (batch items are not endpoint requests)", got)
	}
}

// TestSweepStreamBadParam: unknown stream formats fail loudly, and the
// buffered path is untouched when the parameter is absent.
func TestSweepStreamBadParam(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := do(t, s, http.MethodPost, "/v1/sweep?stream=xml", streamSweepBody); rec.Code != http.StatusBadRequest {
		t.Errorf("stream=xml status = %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/sweep?stream=ndjson", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET stream status = %d, want 405", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/sweep", streamSweepBody); rec.Code != http.StatusOK ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("buffered sweep: status %d content-type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
}

// TestSweepStreamValidationFailsBeforeHeader: a bad request is a plain
// HTTP error — no stream ever starts.
func TestSweepStreamValidationFailsBeforeHeader(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/sweep?stream=ndjson", `{"workload":"nope","design":{"kind":"sym"},"f":{"values":[0.9]}}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct == "application/x-ndjson" {
		t.Error("error response must not claim to be a stream")
	}
}

// TestSweepStreamDeadlineCancelsMidStream: a deadline expiring while
// rows are flowing ends the stream with an in-band error line instead
// of hanging or emitting a trailer, and the grid stops early.
func TestSweepStreamDeadlineCancelsMidStream(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: 3 * time.Millisecond})
	// 500 x 400 = 200k cells: far more than 3ms of evaluation.
	rec := do(t, s, http.MethodPost, "/v1/sweep?stream=ndjson",
		`{"workload":"MMM","design":{"kind":"sym"},"f":{"lo":0.01,"hi":0.99,"steps":500},"areaScale":{"lo":0.5,"hi":2,"steps":400}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (the stream commits to 200 before evaluating)", rec.Code)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	var e SweepStreamError
	if err := json.Unmarshal([]byte(last), &e); err != nil || e.Error == "" {
		t.Fatalf("last line = %q, want an in-band error line", last)
	}
	if !strings.Contains(e.Error, "deadline") {
		t.Errorf("error = %q, want a deadline error", e.Error)
	}
	if len(lines) >= 200_000+2 {
		t.Error("stream ran the whole grid despite the expired deadline")
	}
	if got := s.Snapshot().Responses["serverError"]; got != 1 {
		t.Errorf("responses.serverError = %d, want 1 (504-class in-band failure)", got)
	}
}

// FuzzBatch holds the batch envelope to the same contract as every
// other endpoint: no panics, no 5xx for malformed input, always valid
// JSON — with the added wrinkle that per-item garbage must be itemized
// rather than failing the envelope.
func FuzzBatch(f *testing.F) {
	fuzzEndpoint(f, "/v1/batch", []string{
		`{"items":[{"op":"optimize","request":{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}}]}`,
		`{"items":[{"op":"optimize","request":{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}},{"op":"project","request":{"workload":"MMM","f":0.9}}]}`,
		`{"items":[{"op":"nosuch","request":{}}]}`,
		`{"items":[{"op":"optimize","request":{"model":"multiamdahl","workload":"MMM","f":0.9,"design":{"kind":"sym"}}},{"op":"optimize","request":{"model":"sqrtm","workload":"MMM","f":0.9,"design":{"kind":"sym"}}}]}`,
		`{"items":[{"op":"optimize","request":{"model":"nope","workload":"MMM","f":0.9,"design":{"kind":"sym"}}}]}`,
		`{"items":[{"op":"optimize","request":{bad}}]}`,
		`{"items":[{"op":"optimize"}]}`,
		`{"items":[{"op":"","request":null}]}`,
		`{"items":[{"op":"sweep","request":{"workload":"MMM","design":{"kind":"sym"},"f":{"lo":0,"hi":1,"steps":2000000}}}]}`,
		`{"items":[{"op":"optimize","request":{"workload":"MMM","f":NaN,"design":{"kind":"sym"}}}]}`,
		`{"items":[]}`,
		`{"items":[{"op":"batch","request":{"items":[]}}]}`,
		`{"items":null}`,
		`{bad`,
		`[]`,
		``,
	})
}

// TestBatchHitAllocs pins the allocations of a repeated two-item batch
// whose items are both cache hits, through the full handler, the
// request and recorder included: 92 with go1.24, plus one of slack. A
// batch of hits arms no deadline timer, and its items report their
// models without an allocation of their own. The race detector changes
// allocation counts, so it skips under -race.
func TestBatchHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const pin = 93
	s := newTestServer(t, Config{})
	h := s.Handler()
	body := `{"items":[{"op":"optimize","request":` + sampleBodies["optimize"] +
		`},{"op":"project","request":` + sampleBodies["project"] + `}]}`
	send := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok":2`) {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	send()
	send()
	if got := testing.AllocsPerRun(200, send); got > pin {
		t.Errorf("repeated all-hit batch allocates %.0f times, want <= %d", got, pin)
	} else {
		t.Logf("repeated all-hit batch allocates %.0f times", got)
	}
}
