package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/calcm/heterosim/internal/model"
)

// benchPost drives one request through the full handler stack.
func benchPost(b *testing.B, s *Server, path, body string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
}

func newBenchServer(b *testing.B, entries int) *Server {
	b.Helper()
	s, err := New(Config{CacheEntries: entries})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

const (
	benchOptimizeBody = `{"workload":"FFT-1024","f":0.99,"node":"22nm","design":{"kind":"het","device":"ASIC"}}`
	benchSweepBody    = `{"workload":"FFT-1024","design":{"kind":"het","device":"GTX480"},
		"f":{"lo":0.5,"hi":0.999,"steps":16},"bandwidthScale":{"lo":0.25,"hi":4,"steps":16}}`
	benchProjectBody     = `{"workload":"FFT-1024","f":0.999}`
	benchSensitivityBody = `{"workload":"FFT-1024","f":0.99,"node":"22nm","design":{"kind":"het","device":"ASIC"}}`
	benchAblationBody    = `{"workload":"FFT-1024","f":0.999,"node":"11nm"}`
)

// Cold benchmarks disable cache storage, so every request pays the full
// evaluation; cached benchmarks hit one warm entry. The ratio is the
// point of the serving layer.

func BenchmarkOptimizeCold(b *testing.B) {
	s := newBenchServer(b, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/optimize", benchOptimizeBody)
	}
}

func BenchmarkOptimizeCached(b *testing.B) {
	s := newBenchServer(b, 4096)
	benchPost(b, s, "/v1/optimize", benchOptimizeBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/optimize", benchOptimizeBody)
	}
}

func BenchmarkSweepCold(b *testing.B) {
	s := newBenchServer(b, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/sweep", benchSweepBody)
	}
}

func BenchmarkSweepCached(b *testing.B) {
	s := newBenchServer(b, 4096)
	benchPost(b, s, "/v1/sweep", benchSweepBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/sweep", benchSweepBody)
	}
}

func BenchmarkProjectCold(b *testing.B) {
	s := newBenchServer(b, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/project", benchProjectBody)
	}
}

func BenchmarkProjectCached(b *testing.B) {
	s := newBenchServer(b, 4096)
	benchPost(b, s, "/v1/project", benchProjectBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/project", benchProjectBody)
	}
}

func BenchmarkSensitivityCold(b *testing.B) {
	s := newBenchServer(b, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/sensitivity", benchSensitivityBody)
	}
}

func BenchmarkSensitivityCached(b *testing.B) {
	s := newBenchServer(b, 4096)
	benchPost(b, s, "/v1/sensitivity", benchSensitivityBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/sensitivity", benchSensitivityBody)
	}
}

func BenchmarkAblationCold(b *testing.B) {
	s := newBenchServer(b, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/ablation", benchAblationBody)
	}
}

func BenchmarkAblationCached(b *testing.B) {
	s := newBenchServer(b, 4096)
	benchPost(b, s, "/v1/ablation", benchAblationBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/ablation", benchAblationBody)
	}
}

// BenchmarkCachedParallel measures the hot path under client
// concurrency: all goroutines hammer one warm entry.
func BenchmarkCachedParallel(b *testing.B) {
	s := newBenchServer(b, 4096)
	benchPost(b, s, "/v1/optimize", benchOptimizeBody)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(benchOptimizeBody))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}

// benchModelBody returns the cold-optimize benchmark body for one
// backend; the default backend keeps the field omitted, as most
// requests do.
func benchModelBody(name string) string {
	if name == model.DefaultName {
		return benchOptimizeBody
	}
	return benchOptimizeBody[:len(benchOptimizeBody)-1] + `,"model":"` + name + `"}`
}

// benchModelOptimizeCold measures a cold /v1/optimize under one backend
// through the full handler stack, cache storage disabled.
func benchModelOptimizeCold(b *testing.B, name string) {
	s := newBenchServer(b, -1)
	body := benchModelBody(name)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/optimize", body)
	}
}

// BenchmarkModelOptimizeCold compares cold optimize latency across the
// whole backend registry; the chung case is the omitted-field default,
// so the sub-benchmark spread is the price of each model.
func BenchmarkModelOptimizeCold(b *testing.B) {
	for _, name := range model.Names() {
		b.Run(name, func(b *testing.B) { benchModelOptimizeCold(b, name) })
	}
}

// benchCompareBody is a two-pair compare: each pair is two full roadmap
// projections, so cold latency here is the most expensive buffered
// operation in the registry.
const benchCompareBody = `{"workload":"FFT-1024","f":0.99,"pairs":[{"scenario":1},{"scenario":2}]}`

// benchFrontierBody is the frontier stream's request: one trajectory
// set, streamed node-by-node, never cached.
const benchFrontierBody = `{"workload":"FFT-1024","f":0.99,"scenario":2}`

func BenchmarkCompareCold(b *testing.B) {
	s := newBenchServer(b, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/compare", benchCompareBody)
	}
}

func BenchmarkCompareCached(b *testing.B) {
	s := newBenchServer(b, 4096)
	benchPost(b, s, "/v1/compare", benchCompareBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/compare", benchCompareBody)
	}
}

// BenchmarkFrontierStream measures one full frontier stream through
// the generic NDJSON pipeline. There is no cached variant: streams
// bypass the cache by design, so this is the pipeline's floor.
func BenchmarkFrontierStream(b *testing.B) {
	s := newBenchServer(b, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "/v1/frontier/stream", benchFrontierBody)
	}
}
