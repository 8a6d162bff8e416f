package engine

import (
	"context"
	"errors"
	"math"
	"net/http"
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

// echoOp canonicalizes Name to lower case, clears Workers, and greets.
func echoOp() Op {
	return New("echo", func(req *testReq, env Env) (func(context.Context) (testResp, error), error) {
		if req.Name == "" {
			return nil, BadRequest("name required")
		}
		req.Name = strings.ToLower(req.Name)
		req.Workers = 0
		return func(ctx context.Context) (testResp, error) {
			if err := ctx.Err(); err != nil {
				return testResp{}, err
			}
			return testResp{Greeting: "hello " + req.Name}, nil
		}, nil
	})
}

func TestOpNameAndPath(t *testing.T) {
	op := echoOp()
	if op.Name() != "echo" || op.Path() != "/v1/echo" {
		t.Fatalf("op identity = (%q, %q), want (echo, /v1/echo)", op.Name(), op.Path())
	}
}

func TestPrepareCanonicalizes(t *testing.T) {
	op := echoOp()
	// Spelling variants and worker counts collapse onto one key.
	bodies := []string{
		`{"name":"Ada"}`,
		`{"name":"ada","workers":7}`,
		`{ "workers": 3, "name": "ADA" }`,
	}
	var firstKey string
	for i, b := range bodies {
		key, eval, err := op.Prepare([]byte(b), Env{})
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
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

func TestPrepareErrors(t *testing.T) {
	op := echoOp()
	cases := []struct {
		body string
		want int
	}{
		{`{bad`, http.StatusBadRequest},
		{`{"name":"x","typo":1}`, http.StatusBadRequest},
		{`{"name":"x"} trailing`, http.StatusBadRequest},
		{`{"name":""}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		_, _, err := op.Prepare([]byte(c.body), Env{})
		var e *Error
		if !errors.As(err, &e) || e.Status != c.want {
			t.Errorf("body %q: err = %v, want *Error with status %d", c.body, err, c.want)
		}
	}
}

func TestPrepareEvalHonorsContext(t *testing.T) {
	op := echoOp()
	_, eval, err := op.Prepare([]byte(`{"name":"x"}`), Env{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eval(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled eval err = %v, want context.Canceled", err)
	}
}

func TestRegistry(t *testing.T) {
	a := New("a", func(req *testReq, env Env) (func(context.Context) (testResp, error), error) { return nil, nil })
	b := New("b", func(req *testReq, env Env) (func(context.Context) (testResp, error), error) { return nil, nil })
	r := NewRegistry(a, b)
	if got := r.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Names() = %v", got)
	}
	if got := r.Ops(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("Ops() out of order")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	NewRegistry(a, a)
}

func TestEvalFailure(t *testing.T) {
	if err := EvalFailure(context.Canceled, BadRequest); !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation must pass through, got %v", err)
	}
	if err := EvalFailure(context.DeadlineExceeded, Unprocessable); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline must pass through, got %v", err)
	}
	var e *Error
	if err := EvalFailure(errors.New("boom"), Unprocessable); !errors.As(err, &e) || e.Status != http.StatusUnprocessableEntity {
		t.Errorf("model error must wrap as 422, got %v", err)
	}
	// A panic in a pool worker is the server's fault: it passes through
	// unwrapped, so the transport answers 500, not 400/422.
	panicked := par.ForEach(context.Background(), 8, 4, func(context.Context, int) error { panic("boom") })
	if err := EvalFailure(panicked, BadRequest); !errors.Is(err, par.ErrPanic) || errors.As(err, &e) {
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
		got, err := ParseObjective(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseObjective(%q) = (%q, %v)", c.in, got, err)
		}
	}
}

func TestCheckF(t *testing.T) {
	for _, f := range []float64{0, 0.5, 1} {
		if err := CheckF(f); err != nil {
			t.Errorf("CheckF(%v) = %v, want nil", f, err)
		}
	}
	for _, f := range []float64{-0.1, 1.1, math.NaN()} {
		if err := CheckF(f); err == nil {
			t.Errorf("CheckF(%v) = nil, want error", f)
		}
	}
}
