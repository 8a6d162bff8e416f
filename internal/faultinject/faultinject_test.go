package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	cfg, err := Parse("seed=42,latency=0.1:50ms,error=0.1,reset=0.05,truncate=0.05")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 42, LatencyP: 0.1, Latency: 50 * time.Millisecond, ErrorP: 0.1, ResetP: 0.05, TruncateP: 0.05}
	if cfg != want {
		t.Errorf("Parse = %+v, want %+v", cfg, want)
	}
	if cfg, err := Parse("error=0.25"); err != nil || cfg.ErrorP != 0.25 {
		t.Errorf("minimal spec = (%+v, %v)", cfg, err)
	}
	for _, bad := range []string{
		"nope",                             // not key=value
		"mystery=1",                        // unknown key
		"error=1.5",                        // probability out of range
		"seed=abc",                         // unparsable seed
		"latency=0.1:fast",                 // unparsable duration
		"error=0.5,reset=0.4,truncate=0.3", // partition exceeds 1
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{ErrorP: -0.1}).Validate(); err == nil {
		t.Error("negative probability must fail")
	}
	if err := (Config{Latency: -time.Second}).Validate(); err == nil {
		t.Error("negative latency must fail")
	}
	if _, err := New(Config{ErrorP: 2}); err == nil {
		t.Error("New must reject invalid config")
	}
}

// okHandler is the innocent backend the injector corrupts.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"fine, thanks"}`)
	})
}

// TestDeterministicFaultSequence: the same seed must produce the same
// verdict sequence, and different seeds (almost surely) a different one.
func TestDeterministicFaultSequence(t *testing.T) {
	sequence := func(seed int64) []verdict {
		in, err := New(Config{Seed: seed, ErrorP: 0.2, ResetP: 0.2, TruncateP: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		var vs []verdict
		for i := 0; i < 64; i++ {
			_, v, _ := in.draw()
			vs = append(vs, v)
		}
		return vs
	}
	a, b := sequence(7), sequence(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sequence(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical 64-draw sequences")
	}
}

// TestInjectedErrorResponse: an error verdict yields a JSON 5xx with the
// marker header, leaving the backend untouched.
func TestInjectedErrorResponse(t *testing.T) {
	in, err := New(Config{Seed: 1, ErrorP: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	res, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError && res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want injected 5xx", res.StatusCode)
	}
	if res.Header.Get("X-Fault-Injected") != "error" {
		t.Errorf("X-Fault-Injected = %q, want error", res.Header.Get("X-Fault-Injected"))
	}
	body, _ := io.ReadAll(res.Body)
	if !strings.Contains(string(body), "injected fault") {
		t.Errorf("body = %q", body)
	}
	if st := in.Stats(); st.Errors != 1 || st.Requests != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestInjectedReset: a reset verdict drops the connection with no
// response; the client sees a transport error, never a status.
func TestInjectedReset(t *testing.T) {
	in, err := New(Config{Seed: 1, ResetP: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	res, err := http.Get(ts.URL)
	if err == nil {
		res.Body.Close()
		t.Fatalf("got status %d, want a transport error", res.StatusCode)
	}
	if st := in.Stats(); st.Resets != 1 {
		t.Errorf("stats = %+v, want 1 reset", st)
	}
}

// TestInjectedTruncation: a truncate verdict serves the real status and
// a full-length Content-Length but only half the body, so the read fails
// with an unexpected EOF.
func TestInjectedTruncation(t *testing.T) {
	in, err := New(Config{Seed: 1, TruncateP: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	res, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("headers should arrive intact: %v", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want the backend's 200", res.StatusCode)
	}
	body, err := io.ReadAll(res.Body)
	if err == nil {
		t.Fatalf("read %q cleanly, want an unexpected EOF", body)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !strings.Contains(err.Error(), "EOF") && !strings.Contains(err.Error(), "reset") {
		t.Errorf("read error = %v", err)
	}
	if st := in.Stats(); st.Truncates != 1 {
		t.Errorf("stats = %+v, want 1 truncate", st)
	}
}

// TestCleanPassthrough: with no faults configured every request reaches
// the backend unharmed.
func TestCleanPassthrough(t *testing.T) {
	in, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	for i := 0; i < 10; i++ {
		res, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusOK || !strings.Contains(string(body), "fine") {
			t.Fatalf("request %d: (%d, %q, %v)", i, res.StatusCode, body, err)
		}
	}
	if st := in.Stats(); st.Clean != 10 || st.Requests != 10 {
		t.Errorf("stats = %+v, want 10 clean of 10", st)
	}
}

// TestLatencyInjection: a latency verdict delays the response by at
// least the configured duration.
func TestLatencyInjection(t *testing.T) {
	in, err := New(Config{Seed: 1, LatencyP: 1, Latency: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	start := time.Now()
	res, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Errorf("request took %v, want >= 30ms injected latency", took)
	}
	if st := in.Stats(); st.Latencies != 1 {
		t.Errorf("stats = %+v, want 1 latency", st)
	}
}
