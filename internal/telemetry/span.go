package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// ctxKey keys the context values this package owns.
type ctxKey int

const (
	stagesKey ctxKey = iota
	requestIDKey
)

// WithStages attaches a stage-duration family to the context, so code
// downstream of a handler (the cache, the admission gate, the sweep
// engine) can record spans without holding a reference to the server.
func WithStages(ctx context.Context, f *Family) context.Context {
	if f == nil {
		return ctx
	}
	return context.WithValue(ctx, stagesKey, f)
}

// StagesFrom returns the context's stage family, or nil when none was
// attached (spans become no-ops).
func StagesFrom(ctx context.Context) *Family {
	if ctx == nil {
		return nil
	}
	f, _ := ctx.Value(stagesKey).(*Family)
	return f
}

// Span measures one pipeline stage. The zero value (and any Span from a
// context without a stage family) is a no-op, so instrumented code
// needs no nil checks.
type Span struct {
	fam   *Family
	stage string
	start time.Time
}

// StartSpan begins timing the named stage against the context's stage
// family. Call End exactly once; End on a no-op span is safe.
func StartSpan(ctx context.Context, stage string) Span {
	f := StagesFrom(ctx)
	if f == nil {
		return Span{}
	}
	return Span{fam: f, stage: stage, start: time.Now()}
}

// End records the span's elapsed time.
func (s Span) End() {
	if s.fam == nil {
		return
	}
	s.fam.Observe(s.stage, time.Since(s.start))
}

// HeaderRequestID is the canonical request-ID header.
const HeaderRequestID = "X-Request-ID"

// reqSeq disambiguates IDs minted when the entropy source fails.
var reqSeq atomic.Int64

// NewRequestID mints a 16-hex-char request ID. IDs are opaque — their
// only contract is uniqueness-in-practice and log-friendliness.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; fall back to a
		// monotonic counter rather than panicking in a request path.
		return fmt.Sprintf("seq-%013d", reqSeq.Add(1))
	}
	var id [2 * len(b)]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// maxRequestIDLen bounds accepted client-supplied IDs so a hostile
// header cannot bloat every log line.
const maxRequestIDLen = 64

// SanitizeRequestID validates a client-supplied request ID: printable
// ASCII without spaces or quotes, at most 64 bytes. Anything else
// returns "" (mint a fresh one instead).
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return ""
		}
	}
	return id
}

// WithRequestID attaches a request ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request ID, or "".
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}
