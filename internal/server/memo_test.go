package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/servecache"
)

// reply is what a client can observe of one response.
type reply struct {
	status       int
	body         string
	model, cache string
}

func post(t *testing.T, s *Server, path, body string) reply {
	t.Helper()
	rec := do(t, s, http.MethodPost, path, body)
	return reply{rec.Code, rec.Body.String(), rec.Header().Get(headerModel), rec.Header().Get("X-Heterosim-Cache")}
}

// memoSize reports the memo's entry count and the bytes its bodies and
// keys hold.
func memoSize(s *Server) (entries, size int) {
	m := s.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rm := range m.routes {
		for body, e := range rm {
			size += len(body) + len(e.key)
		}
	}
	return m.n, size
}

// prepared is what Prepare itself derives from body: the canonical key,
// the model header and the response bytes.
func prepared(t *testing.T, op engine.Op, body string) (key, model, resp string) {
	t.Helper()
	meta := engine.Meta{}
	key, eval, err := op.Prepare([]byte(body), engine.Env{Meta: &meta})
	if err != nil {
		t.Fatalf("%s: Prepare: %v", op.Name(), err)
	}
	b, err := eval(context.Background())
	if err != nil {
		t.Fatalf("%s: eval: %v", op.Name(), err)
	}
	return key, meta.Model, string(b)
}

// TestRepeatedBodyMatchesPrepare sends each buffered op's sample body
// three times: the second answer comes from the cache after a full
// Prepare and remembers the body, the third skips Prepare. All three
// must be the bytes and model header Prepare itself gives, with the
// counters of a server that prepares every request.
func TestRepeatedBodyMatchesPrepare(t *testing.T) {
	for _, op := range registry.Ops() {
		body := sampleBodies[op.Name()]
		key, model, resp := prepared(t, op, body)
		s := newTestServer(t, Config{})
		for i, wantCache := range []string{"miss", "hit", "hit"} {
			got := post(t, s, op.Path(), body)
			if want := (reply{http.StatusOK, resp, model, wantCache}); got != want {
				t.Fatalf("%s send %d = %+v, want %+v", op.Name(), i+1, got, want)
			}
		}
		if e, ok := s.memo.get(routeIndex(t, op), []byte(body)); !ok || e != (memoEntry{key, model}) {
			t.Errorf("%s: memo entry = %+v, %v; want Prepare's key and model %q", op.Name(), e, ok, model)
		}
		m := s.Snapshot()
		wantCache := servecache.Stats{Hits: 2, Misses: 1, Entries: 1, Capacity: 4096, Shards: servecache.DefaultShards}
		if m.Cache != wantCache || m.Requests[op.Name()] != 3 ||
			m.Responses["ok"] != 3 || m.Responses["clientError"] != 0 || m.Responses["serverError"] != 0 {
			t.Errorf("%s: metrics = %+v %+v %+v, want cache %+v, 3 requests, 3 ok",
				op.Name(), m.Cache, m.Requests, m.Responses, wantCache)
		}
	}
}

// routeIndex is op's index in the route table, which the memo shares.
func routeIndex(t *testing.T, op engine.Op) int {
	t.Helper()
	for i := range routes {
		if routes[i].path == op.Path() {
			return i
		}
	}
	t.Fatalf("no route for %s", op.Path())
	return -1
}

// TestRepeatedBodyAfterEviction evicts a remembered body's response:
// the resend skips Prepare up front, runs it inside the cache leader,
// and answers the same bytes as a fresh miss.
func TestRepeatedBodyAfterEviction(t *testing.T) {
	for _, op := range registry.Ops() {
		body := sampleBodies[op.Name()]
		_, model, resp := prepared(t, op, body)
		s := newTestServer(t, Config{CacheEntries: 1})
		// One shard with one slot, so any other key evicts this one.
		s.cache, _ = servecache.NewSharded(1, 1)
		evals := 0
		s.onEvaluate = func(string) { evals++ }
		post(t, s, op.Path(), body)
		post(t, s, op.Path(), body)
		other := registry.Ops()[(routeIndex(t, op)+1)%len(registry.Ops())]
		post(t, s, other.Path(), sampleBodies[other.Name()])
		if n, _ := memoSize(s); n != 1 {
			t.Fatalf("%s: memo holds %d entries, want 1", op.Name(), n)
		}
		got := post(t, s, op.Path(), body)
		if want := (reply{http.StatusOK, resp, model, "miss"}); got != want {
			t.Errorf("%s resend after eviction = %+v, want %+v", op.Name(), got, want)
		}
		if evals != 3 {
			t.Errorf("%s: %d evaluations, want 3 (miss, other, resend)", op.Name(), evals)
		}
	}
}

// TestMemoRemembersOnlyCacheableRepeats covers the bodies the memo
// must never hold: a repeated error, a repeat with cache storage
// disabled, and a repeat padded past memoMaxBytes. Each still answers
// identically every time.
func TestMemoRemembersOnlyCacheableRepeats(t *testing.T) {
	body := sampleBodies["optimize"]
	padded := body + strings.Repeat(" ", memoMaxBytes)
	for _, c := range []struct {
		name    string
		entries int
		body    string
		caches  []string
	}{
		{"bad request", 0, `{"workload":"MMM","f":2,"design":{"kind":"sym"}}`, []string{"", "", ""}},
		{"malformed", 0, `{bad`, []string{"", "", ""}},
		{"storage disabled", -1, body, []string{"miss", "miss", "miss"}},
		{"padded", 0, padded, []string{"miss", "hit", "hit"}},
	} {
		s := newTestServer(t, Config{CacheEntries: c.entries})
		var first reply
		for i, cache := range c.caches {
			got := post(t, s, "/v1/optimize", c.body)
			if i == 0 {
				first = got
			}
			if got.status != first.status || got.body != first.body || got.model != first.model || got.cache != cache {
				t.Errorf("%s: send %d = %+v, want %+v with cache %q", c.name, i+1, got, first, cache)
			}
		}
		if n, _ := memoSize(s); n != 0 {
			t.Errorf("%s: memo holds %d entries, want 0", c.name, n)
		}
	}
}

// TestMemoBounded repeats more distinct bodies than the cache holds:
// the memo never exceeds Config.CacheEntries entries or
// memoMaxBytes per entry, and every answer stays Prepare's.
func TestMemoBounded(t *testing.T) {
	const entries = 3
	s := newTestServer(t, Config{CacheEntries: entries})
	op := registryOps["optimize"]
	for i := 0; i < 3*entries; i++ {
		body := fmt.Sprintf(`{"workload":"MMM","f":0.%d,"design":{"kind":"sym"}}`, 50+i)
		_, model, resp := prepared(t, op, body)
		for j := 0; j < 3; j++ {
			if got := post(t, s, op.Path(), body); got.status != http.StatusOK || got.body != resp || got.model != model {
				t.Fatalf("body %d send %d = %+v, want Prepare's answer", i, j+1, got)
			}
		}
		if n, size := memoSize(s); n > entries || size > n*memoMaxBytes {
			t.Fatalf("after body %d: memo holds %d entries in %d bytes, want <= %d entries of <= %d bytes",
				i, n, size, entries, memoMaxBytes)
		}
	}
}

// TestMemoConcurrentRepeats races first arrivals, memo writes and memo
// hits of the same bodies across every buffered op (run it under
// -race): every answer must be Prepare's.
func TestMemoConcurrentRepeats(t *testing.T) {
	s := newTestServer(t, Config{})
	want := make(map[string]string)
	for _, op := range registry.Ops() {
		_, _, want[op.Name()] = prepared(t, op, sampleBodies[op.Name()])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				for _, op := range registry.Ops() {
					req := httptest.NewRequest(http.MethodPost, op.Path(), strings.NewReader(sampleBodies[op.Name()]))
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, req)
					if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), []byte(want[op.Name()])) {
						t.Errorf("%s: status %d, body differs from Prepare's", op.Name(), rec.Code)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := memoSize(s); n != len(registry.Ops()) {
		t.Errorf("memo holds %d entries, want one per op (%d)", n, len(registry.Ops()))
	}
}

// TestCachedRepeatAllocs pins the allocations of a repeated optimize
// through the full handler, the request and recorder included. The
// race detector changes allocation counts, so it skips under -race.
func TestCachedRepeatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const pin = 44
	s := newTestServer(t, Config{})
	h := s.Handler()
	send := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(benchOptimizeBody)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	send()
	send()
	if got := testing.AllocsPerRun(200, send); got > pin {
		t.Errorf("repeated optimize allocates %.0f times, want <= %d", got, pin)
	} else {
		t.Logf("repeated optimize allocates %.0f times", got)
	}
}
