package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestResponseHeaderContract pins the whole header set a client sees on
// the wire for a miss, a hit (after a full Prepare and from the memo),
// a stale answer and the error classes, names and values: only Date and
// a minted request ID vary. The serving path writes these headers by
// key with shared value slices, so this is what keeps that byte-exact.
func TestResponseHeaderContract(t *testing.T) {
	// One cache slot, so a second key evicts the first into the stale
	// tier; one admission slot with a short queue wait, so holding it
	// makes any evaluation fail.
	s := newTestServer(t, Config{CacheEntries: 1, MaxInflight: 1, MaxQueue: 1, QueueTimeout: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		first   = `{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`
		sqrtm   = `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"model":"sqrtm"}`
		unseen  = `{"workload":"MMM","f":0.8,"design":{"kind":"sym"}}`
		badBody = `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"budgets":{"area":-1,"power":1,"bandwidth":1}}`
		project = `{"workload":"MMM","f":0.9}` // a body past net/http's 2 KiB chunking threshold
	)
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)
	holdGate := func() func() {
		release, status := s.gate.acquire(context.Background())
		if status != 0 {
			t.Fatalf("holding the only slot: status %d", status)
		}
		return release
	}
	for _, tc := range []struct {
		name, method, body, id string
		hold                   bool
		status                 int
		want                   map[string]string // Content-Length is checked against the body
	}{
		{"miss, defaulted model, echoed ID", http.MethodPost, first, "contract-1", false, http.StatusOK, map[string]string{
			"Content-Type": "application/json", "X-Heterosim-Cache": "miss", "X-Heterosim-Model": "chung", "X-Request-Id": "contract-1"}},
		{"hit after Prepare", http.MethodPost, first, "contract-2", false, http.StatusOK, map[string]string{
			"Content-Type": "application/json", "X-Heterosim-Cache": "hit", "X-Heterosim-Model": "chung", "X-Request-Id": "contract-2"}},
		{"hit from the memo", http.MethodPost, first, "contract-3", false, http.StatusOK, map[string]string{
			"Content-Type": "application/json", "X-Heterosim-Cache": "hit", "X-Heterosim-Model": "chung", "X-Request-Id": "contract-3"}},
		{"hit, minted ID", http.MethodPost, first, "", false, http.StatusOK, map[string]string{
			"Content-Type": "application/json", "X-Heterosim-Cache": "hit", "X-Heterosim-Model": "chung"}},
		{"miss, named model", http.MethodPost, sqrtm, "contract-5", false, http.StatusOK, map[string]string{
			"Content-Type": "application/json", "X-Heterosim-Cache": "miss", "X-Heterosim-Model": "sqrtm", "X-Request-Id": "contract-5"}},
		{"stale", http.MethodPost, first, "contract-6", true, http.StatusOK, map[string]string{
			"Content-Type": "application/json", "X-Heterosim-Cache": "stale", "X-Heterosim-Model": "chung", "X-Request-Id": "contract-6"}},
		{"saturated", http.MethodPost, unseen, "contract-7", true, http.StatusServiceUnavailable, map[string]string{
			"Content-Type": "application/json", "Retry-After": "1", "X-Heterosim-Model": "chung", "X-Request-Id": "contract-7"}},
		{"miss, large body", http.MethodPost, project, "contract-7a", false, http.StatusOK, map[string]string{
			"Content-Type": "application/json", "X-Heterosim-Cache": "miss", "X-Heterosim-Model": "chung", "X-Request-Id": "contract-7a"}},
		{"hit, large body", http.MethodPost, project, "contract-7b", false, http.StatusOK, map[string]string{
			"Content-Type": "application/json", "X-Heterosim-Cache": "hit", "X-Heterosim-Model": "chung", "X-Request-Id": "contract-7b"}},
		{"invalid after the model resolved", http.MethodPost, badBody, "contract-8", false, http.StatusBadRequest, map[string]string{
			"Content-Type": "application/json", "X-Heterosim-Model": "chung", "X-Request-Id": "contract-8"}},
		{"malformed", http.MethodPost, `{not json`, "contract-9", false, http.StatusBadRequest, map[string]string{
			"Content-Type": "application/json", "X-Request-Id": "contract-9"}},
		{"wrong method", http.MethodGet, "", "contract-10", false, http.StatusMethodNotAllowed, map[string]string{
			"Allow": "POST", "Content-Type": "application/json", "X-Request-Id": "contract-10"}},
	} {
		path := "/v1/optimize"
		if tc.body == project {
			path = "/v1/project"
		}
		req, err := http.NewRequest(tc.method, ts.URL+path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.id != "" {
			req.Header.Set("X-Request-ID", tc.id)
		}
		release := func() {}
		if tc.hold {
			release = holdGate()
		}
		res, err := ts.Client().Do(req)
		release()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.StatusCode != tc.status {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, res.StatusCode, body, tc.status)
		}
		if tc.body == project && len(body) <= 2048 {
			t.Fatalf("%s: %d-byte body, want one past the chunking threshold", tc.name, len(body))
		}
		got := res.Header.Clone()
		if len(got.Values("Date")) != 1 {
			t.Errorf("%s: Date = %q, want one value", tc.name, got.Values("Date"))
		}
		got.Del("Date")
		if tc.id == "" {
			if id := got.Get("X-Request-Id"); !minted.MatchString(id) {
				t.Errorf("%s: minted X-Request-Id %q", tc.name, id)
			}
			got.Del("X-Request-Id")
		}
		want := map[string]string{"Content-Length": strconv.Itoa(len(body))}
		for k, v := range tc.want {
			want[k] = v
		}
		if g, w := headerLines(got), headerLines(toHeader(want)); g != w {
			t.Errorf("%s: headers\n%s\nwant\n%s", tc.name, g, w)
		}
	}
}

func toHeader(m map[string]string) http.Header {
	h := make(http.Header, len(m))
	for k, v := range m {
		h.Set(k, v)
	}
	return h
}

// headerLines renders every header value as a sorted "Key: value" list.
func headerLines(h http.Header) string {
	var lines []string
	for k, vs := range h {
		for _, v := range vs {
			lines = append(lines, k+": "+v)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
