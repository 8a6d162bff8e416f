package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/calcm/heterosim/internal/telemetry"
)

// Tracing for the per-layer run. Spans are recorded only at the
// boundaries the benchmark's own code owns — around the typed client
// call, around each wire round trip (a wrapping http.RoundTripper), and
// around the server's public Handler() — and never inside the program.
// Spans of one operation share its stream index as their ID, are kept
// in memory, and are written out when the run ends.

// Span names, outermost first; each span's parent is the one before it.
const (
	spanCall      = "client.call"
	spanRoundTrip = "net.roundtrip"
	spanHandler   = "server.handler"
)

var spanParent = map[string]string{spanRoundTrip: spanCall, spanHandler: spanRoundTrip}

type span struct {
	id         int64
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer collects spans while on. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// active reports whether spans are being recorded; nil is never active.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanTotal is the summed duration and count of one span name.
type spanTotal struct {
	sum time.Duration
	n   int64
}

// mean is the average span duration in microseconds, 0 with no spans.
func (s spanTotal) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return us(s.sum) / float64(s.n)
}

// totals sums span durations and counts spans by name.
func (t *tracer) totals() map[string]spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanTotal)
	for _, s := range t.spans {
		e := out[s.name]
		e.sum += time.Duration(s.end - s.start)
		e.n++
		out[s.name] = e
	}
	return out
}

// write stores every span as CSV (id, name, parent, start_ns, end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,parent,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%s,%d,%d\n", s.id, s.name, spanParent[s.name], s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request IDs carry the op index from the client span to the handler
// span: the client forwards the context's ID as X-Request-ID.
const idPrefix = "pb-"

func requestID(i int64) string { return idPrefix + strconv.FormatInt(i, 10) }

func parseRequestID(s string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(s, idPrefix), 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// tracedHandler times next.ServeHTTP while the tracer is on.
func tracedHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(span{id: parseRequestID(r.Header.Get(telemetry.HeaderRequestID)), name: spanHandler, start: start, end: t.now()})
	})
}
