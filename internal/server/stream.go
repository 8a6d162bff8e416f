package server

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"

	"github.com/calcm/heterosim/internal/engine"
)

// This file is the one generic NDJSON stream pipeline, written once
// against engine.StreamOp the way serveOp is written once against
// engine.Op, and sharing its prepare, deadline, admit-and-evaluate and
// error-classification steps: one gate slot for the whole stream, a
// chunked flush, and in-band error lines once frames are out. Streams
// always evaluate: the response never enters the result cache or the
// peer tier — a stream is a bulk export, not a cacheable unit — and the
// X-Heterosim-Cache header says "stream" so clients can tell.
//
// An op may shadow a buffered registry op under the same route (the
// sweep does — `?stream=ndjson` picks the stream) or own a stream-only
// route (the frontier); the route table declares which, and
// route.wantsStream classifies the query parameter.

// streamEmitter adapts an http.ResponseWriter to engine.StreamEmitter.
// Emit buffers complete NDJSON lines; Flush writes the buffer and
// pushes it through the HTTP flusher, so the op's flush granularity
// (after the header, after each evaluation window) becomes the wire's.
// The first write decides the stream is committed: from then on errors
// go in-band, not as HTTP statuses.
type streamEmitter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	buf     []byte
	started bool // any line emitted: the 200 header is (about to be) spent
	dead    bool // a write failed: the client is gone
}

func (e *streamEmitter) Emit(line []byte) error {
	if e.dead {
		return errStreamClientGone
	}
	e.started = true
	e.buf = append(e.buf, line...)
	e.buf = append(e.buf, '\n')
	return nil
}

func (e *streamEmitter) Flush() error {
	if err := e.write(); err != nil {
		return err
	}
	if e.flusher != nil {
		e.flusher.Flush()
	}
	return nil
}

// write drains the line buffer to the response without forcing an HTTP
// flush.
func (e *streamEmitter) write() error {
	if e.dead {
		return errStreamClientGone
	}
	if len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	if err != nil {
		e.dead = true
		return errStreamClientGone
	}
	return nil
}

// errStreamClientGone marks a failed response write: the client went
// away mid-stream. Nothing is salvageable — no error line can reach
// anyone — so the pipeline returns without a trace beyond the access
// log's byte count.
var errStreamClientGone = errors.New("stream client gone")

// serveStream serves one stream; the route has already counted the
// request, checked the method and picked the stream form.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, op engine.StreamOp) {
	var stream engine.StreamFunc
	if !s.prepare(w, r, func(body []byte, env engine.Env) (err error) {
		stream, err = op.PrepareStream(body, env)
		return err
	}) {
		return
	}
	ctx, cancel := s.withDeadline(r.Context())
	defer cancel()
	flusher, _ := w.(http.Flusher)
	e := &streamEmitter{w: w, flusher: flusher}
	// Streams always evaluate, so they are admitted like any miss — one
	// slot for the whole stream.
	_, err := s.evaluate(ctx, s.gate, op.Name(), func(ctx context.Context) ([]byte, error) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Heterosim-Cache", "stream")
		return nil, stream(ctx, e)
	})
	switch {
	case err == nil:
		if e.Flush() == nil {
			s.responses.ok.Add(1)
		}
	case e.dead:
		// Client gone; nothing to clean up.
	case !e.started:
		// Nothing emitted: the HTTP status is still ours to spend.
		s.writeError(w, err)
	default:
		s.streamError(r.Context(), op.Name(), e, err)
	}
}

// streamError reports a failure after frames are on the wire: an
// in-band NDJSON error line carrying the classified message, counted
// under the same response class writeError would have used, and
// logged — a stream that dies with no trailer must always be
// attributable in the access log's vicinity, because its HTTP status
// is a lie (200).
func (s *Server) streamError(ctx context.Context, name string, e *streamEmitter, err error) {
	ae := classify(err)
	s.countError(ae.Status)
	s.logger.LogAttrs(ctx, slog.LevelWarn, "stream failed in-band",
		slog.String("endpoint", name),
		slog.Int("status", ae.Status),
		slog.String("error", err.Error()))
	// A one-string struct always marshals.
	line, _ := json.Marshal(SweepStreamError{Error: ae.Message})
	if e.Emit(line) != nil {
		return
	}
	e.Flush()
}
