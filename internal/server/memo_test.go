package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/calcm/heterosim/internal/codec"
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
func prepared(t *testing.T, rt *route, body string) (key, model, resp string) {
	t.Helper()
	key, model, eval, err := rt.op([]byte(body), 0)
	if err != nil {
		t.Fatalf("%s: Prepare: %v", rt.name, err)
	}
	b, err := eval(context.Background())
	if err != nil {
		t.Fatalf("%s: eval: %v", rt.name, err)
	}
	return key, model, string(b)
}

// TestRepeatedBodyMatchesPrepare sends each buffered op's sample body
// three times: the second answer comes from the cache after a full
// Prepare and remembers the body, the third skips Prepare. All three
// must be the bytes and model header Prepare itself gives, with the
// counters of a server that prepares every request.
func TestRepeatedBodyMatchesPrepare(t *testing.T) {
	for _, rt := range opRoutes() {
		body := sampleBodies[rt.name]
		key, model, resp := prepared(t, rt, body)
		s := newTestServer(t, Config{})
		for i, wantCache := range []string{"miss", "hit", "hit"} {
			got := post(t, s, rt.path, body)
			if want := (reply{http.StatusOK, resp, model, wantCache}); got != want {
				t.Fatalf("%s send %d = %+v, want %+v", rt.name, i+1, got, want)
			}
		}
		if e, ok := s.memo.get(opRoute(rt.name), []byte(body)); !ok || e.key != key || e.model != model ||
			e.size != len(resp) || len(e.length) != 1 || e.length[0] != strconv.Itoa(len(resp)) {
			t.Errorf("%s: memo entry = %+v, %v; want Prepare's key and model %q and length %d", rt.name, e, ok, model, len(resp))
		}
		m := s.Snapshot()
		wantCache := servecache.Stats{Hits: 2, Misses: 1, Entries: 1, Capacity: 4096, Shards: servecache.DefaultShards}
		if m.Cache != wantCache || m.Requests[rt.name] != 3 ||
			m.Responses["ok"] != 3 || m.Responses["clientError"] != 0 || m.Responses["serverError"] != 0 {
			t.Errorf("%s: metrics = %+v %+v %+v, want cache %+v, 3 requests, 3 ok",
				rt.name, m.Cache, m.Requests, m.Responses, wantCache)
		}
	}
}

// TestRepeatedBodyAfterEviction evicts a remembered body's response:
// the resend skips Prepare up front, runs it inside the cache leader,
// and answers the same bytes as a fresh miss.
func TestRepeatedBodyAfterEviction(t *testing.T) {
	ops := opRoutes()
	for k, rt := range ops {
		body := sampleBodies[rt.name]
		_, model, resp := prepared(t, rt, body)
		s := newTestServer(t, Config{CacheEntries: 1})
		// One shard with one slot, so any other key evicts this one.
		s.cache, _ = servecache.NewSharded(1, 1)
		evals := 0
		s.onEvaluate = func(string) { evals++ }
		post(t, s, rt.path, body)
		post(t, s, rt.path, body)
		other := ops[(k+1)%len(ops)]
		post(t, s, other.path, sampleBodies[other.name])
		if n, _ := memoSize(s); n != 1 {
			t.Fatalf("%s: memo holds %d entries, want 1", rt.name, n)
		}
		got := post(t, s, rt.path, body)
		if want := (reply{http.StatusOK, resp, model, "miss"}); got != want {
			t.Errorf("%s resend after eviction = %+v, want %+v", rt.name, got, want)
		}
		if evals != 3 {
			t.Errorf("%s: %d evaluations, want 3 (miss, other, resend)", rt.name, evals)
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
	rt := &routes[opRoute("optimize")]
	for i := 0; i < 3*entries; i++ {
		body := fmt.Sprintf(`{"workload":"MMM","f":0.%d,"design":{"kind":"sym"}}`, 50+i)
		_, model, resp := prepared(t, rt, body)
		for j := 0; j < 3; j++ {
			if got := post(t, s, rt.path, body); got.status != http.StatusOK || got.body != resp || got.model != model {
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
	for _, rt := range opRoutes() {
		_, _, want[rt.name] = prepared(t, rt, sampleBodies[rt.name])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				for _, rt := range opRoutes() {
					req := httptest.NewRequest(http.MethodPost, rt.path, strings.NewReader(sampleBodies[rt.name]))
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, req)
					if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), []byte(want[rt.name])) {
						t.Errorf("%s: status %d, body differs from Prepare's", rt.name, rec.Code)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := memoSize(s); n != len(opRoutes()) {
		t.Errorf("memo holds %d entries, want one per op (%d)", n, len(opRoutes()))
	}
}

// TestCachedRepeatAllocs pins the allocations of a repeated optimize
// through the full handler, the request and recorder included: 25 with
// go1.24, plus one of slack. The race detector changes allocation
// counts, so it skips under -race.
func TestCachedRepeatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const pin = 26
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

// TestColdOptimizeAllocs pins the allocations of an optimize request
// that runs Prepare and evaluates, the request and recorder included:
// 44 with go1.24, and no slack. The codec's share is five: the decoded
// request and its string arena, the key, and the boxed response and its
// exact-size bytes. Cache storage is off, so neither the cache nor the
// memo answers the request. The race detector changes allocation
// counts, so it skips under -race.
func TestColdOptimizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const pin = 44
	s := newTestServer(t, Config{CacheEntries: -1})
	h := s.Handler()
	send := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(benchOptimizeBody)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Heterosim-Cache") != "miss" {
			t.Fatalf("status %d, cache %q: %s", rec.Code, rec.Header().Get("X-Heterosim-Cache"), rec.Body)
		}
	}
	send()
	if got := testing.AllocsPerRun(200, send); got > pin {
		t.Errorf("cold optimize allocates %.0f times, want <= %d", got, pin)
	} else {
		t.Logf("cold optimize allocates %.0f times", got)
	}
}

// TestDecodeStrictAllocs pins the strict decode of an optimize body, its
// target included, at the plan decoder's own count (the target and the
// body's string arena): the strict rules cost nothing.
func TestDecodeStrictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const pin = 2
	body := []byte(benchOptimizeBody)
	plan := testing.AllocsPerRun(200, func() {
		if err := codec.Decode(body, new(OptimizeRequest)); err != nil {
			t.Fatal(err)
		}
	})
	strict := testing.AllocsPerRun(200, func() {
		if err := DecodeStrict(body, new(OptimizeRequest)); err != nil {
			t.Fatal(err)
		}
	})
	if strict > plan || strict > pin {
		t.Errorf("strict decode allocates %.0f times, the plan decoder %.0f; want <= both and <= %d", strict, plan, pin)
	}
}

// TestCanonicalKeyAllocs pins a canonical key at one allocation, the key
// string, which the encoder writes in place, and checks its bytes.
func TestCanonicalKeyAllocs(t *testing.T) {
	req := &OptimizeRequest{Workload: "FFT-1024", F: 0.99, Node: "22nm", Objective: "speedup",
		Design: DesignSpec{Kind: "het", Device: "ASIC"}}
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if key, err := canonicalKey("/v1/optimize", req); err != nil || key != "/v1/optimize\x00"+string(want) {
		t.Fatalf("canonicalKey = %q, %v; want %q", key, err, "/v1/optimize\x00"+string(want))
	}
	if raceEnabled {
		return // allocation counts differ under -race
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := canonicalKey("/v1/optimize", req); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("canonicalKey allocates %.0f times, want 1", got)
	}
}
