package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/calcm/heterosim/internal/par"
)

type testReq struct {
	Name    string `json:"name"`
	Workers int    `json:"workers,omitempty"`
}

type testResp struct {
	Greeting string `json:"greeting"`
}

// echoOp canonicalizes Name to lower case, clears Workers, resolves the
// model "chung", and greets. The name "late" fails after the model
// resolved.
var echoOp = newOp("echo", func(req *testReq, workers int) (string, func(context.Context) (testResp, error), error) {
	if req.Name == "" {
		return "", nil, BadRequest("name required")
	}
	if req.Name == "late" {
		return "chung", nil, BadRequest("late failure")
	}
	req.Name = strings.ToLower(req.Name)
	req.Workers = 0
	return "chung", func(ctx context.Context) (testResp, error) {
		if err := ctx.Err(); err != nil {
			return testResp{}, err
		}
		return testResp{Greeting: "hello " + req.Name}, nil
	}, nil
})

func TestPrepareCanonicalizes(t *testing.T) {
	// Spelling variants and worker counts collapse onto one key.
	bodies := []string{
		`{"name":"Ada"}`,
		`{"name":"ada","workers":7}`,
		`{ "workers": 3, "name": "ADA" }`,
	}
	var firstKey string
	for i, b := range bodies {
		key, model, eval, err := echoOp([]byte(b), 0)
		if err != nil || model != "chung" {
			t.Fatalf("body %d: model %q, err %v", i, model, err)
		}
		if i == 0 {
			firstKey = key
			if want := "/v1/echo\x00" + `{"name":"ada"}`; key != want {
				t.Fatalf("key = %q, want %q", key, want)
			}
		} else if key != firstKey {
			t.Errorf("body %d: key %q, want %q", i, key, firstKey)
		}
		out, err := eval(context.Background())
		if err != nil || string(out) != `{"greeting":"hello ada"}` {
			t.Errorf("body %d: eval = (%s, %v)", i, out, err)
		}
	}
}

// TestPrepareErrors: every failure is a 400 *Error, and the model comes
// back with it only once it has resolved.
func TestPrepareErrors(t *testing.T) {
	cases := []struct {
		body, model string
	}{
		{`{bad`, ""},
		{`{"name":"x","typo":1}`, ""},
		{`{"name":"x"} trailing`, ""},
		{`{"name":""}`, ""},
		{`{"name":"late"}`, "chung"},
	}
	for _, c := range cases {
		_, model, _, err := echoOp([]byte(c.body), 0)
		var e *Error
		if !errors.As(err, &e) || e.Status != http.StatusBadRequest || model != c.model {
			t.Errorf("body %q: (model %q, err %v), want model %q and a 400 *Error", c.body, model, err, c.model)
		}
	}
}

func TestPrepareEvalHonorsContext(t *testing.T) {
	_, _, eval, err := echoOp([]byte(`{"name":"x"}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eval(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled eval err = %v, want context.Canceled", err)
	}
}

type streamReq struct {
	N int `json:"n"`
}

// numbersStream emits n lines and flushes once.
var numbersStream = newStreamOp(func(req *streamReq, workers int) (string, streamFunc, error) {
	if req.N < 0 {
		return "", nil, BadRequest("n must be >= 0, got %d", req.N)
	}
	n := req.N
	return "", func(ctx context.Context, e *streamEmitter) error {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := e.Emit([]byte(`{"i":` + string(rune('0'+i)) + `}`)); err != nil {
				return err
			}
		}
		return e.Flush()
	}, nil
})

func TestPrepareStreamDecodeStrict(t *testing.T) {
	if _, _, err := numbersStream([]byte(`{"n": 1, "typo": true}`), 0); err == nil {
		t.Fatal("unknown field accepted")
	} else if e := new(Error); !errors.As(err, &e) || e.Status != 400 {
		t.Fatalf("want 400 *Error, got %v", err)
	}
	if _, _, err := numbersStream([]byte(`{"n": -1}`), 0); err == nil {
		t.Fatal("build validation error lost")
	} else if !strings.Contains(err.Error(), "n must be >= 0") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPrepareStreamEmits(t *testing.T) {
	_, fn, err := numbersStream([]byte(`{"n": 3}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	if err := fn(context.Background(), &streamEmitter{w: rec, flusher: rec}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n" || !rec.Flushed {
		t.Fatalf("stream wrote %q, flushed %v", got, rec.Flushed)
	}
}

func TestStreamHonorsContext(t *testing.T) {
	_, fn, err := numbersStream([]byte(`{"n": 3}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := fn(ctx, &streamEmitter{w: httptest.NewRecorder()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestEvalFailure(t *testing.T) {
	if err := evalFailure(context.Canceled, BadRequest); !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation must pass through, got %v", err)
	}
	if err := evalFailure(context.DeadlineExceeded, unprocessable); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline must pass through, got %v", err)
	}
	var e *Error
	if err := evalFailure(errors.New("boom"), unprocessable); !errors.As(err, &e) || e.Status != http.StatusUnprocessableEntity {
		t.Errorf("model error must wrap as 422, got %v", err)
	}
	// A panic in a pool worker is the server's fault: it passes through
	// unwrapped, so the transport answers 500, not 400/422.
	panicked := par.ForEach(context.Background(), 8, 4, func(context.Context, int) error { panic("boom") })
	if err := evalFailure(panicked, BadRequest); !errors.Is(err, par.ErrPanic) || errors.As(err, &e) {
		t.Errorf("worker panic must pass through unwrapped, got %v", err)
	}
}

func TestParseObjective(t *testing.T) {
	for _, c := range []struct {
		in, want string
		ok       bool
	}{
		{"", "speedup", true},
		{"speedup", "speedup", true},
		{"energy", "energy", true},
		{"area", "", false},
	} {
		got, err := parseObjective(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseObjective(%q) = (%q, %v)", c.in, got, err)
		}
	}
}

func TestCheckF(t *testing.T) {
	for _, f := range []float64{0, 0.5, 1} {
		if err := checkF(f); err != nil {
			t.Errorf("checkF(%v) = %v, want nil", f, err)
		}
	}
	for _, f := range []float64{-0.1, 1.1, math.NaN()} {
		if err := checkF(f); err == nil {
			t.Errorf("checkF(%v) = nil, want error", f)
		}
	}
}

func TestDecodeStrictTrailingData(t *testing.T) {
	type req struct {
		A int `json:"a"`
	}
	for _, body := range []string{
		`{"a":1}`,
		" {\"a\":1} \n\t",
	} {
		var r req
		if err := DecodeStrict([]byte(body), &r); err != nil || r.A != 1 {
			t.Errorf("DecodeStrict(%q) = %v, a=%d; want nil, a=1", body, err, r.A)
		}
	}
	for _, body := range []string{
		`{"a":1}}`,
		`{"a":1}]`,
		`{"a":1}]]]garbage`,
		`{"a":1} x`,
		`{"a":1} {"a":2}`,
		`{"a":1} 5`,
		`{"a":1},`,
		`{"a":1}:`,
		`{"a":1} "s"`,
		`{"a":1}[`,
	} {
		var r req
		err := DecodeStrict([]byte(body), &r)
		var e *Error
		if !errors.As(err, &e) || e.Status != 400 {
			t.Errorf("DecodeStrict(%q) = %v, want a 400 *Error", body, err)
		}
	}
}
