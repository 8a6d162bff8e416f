package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"github.com/calcm/heterosim/internal/server"
)

// This file is the client side of the multi-result surfaces: the batch
// fan-out (one POST, many typed results), the buffered compare (one
// POST, k scenario x model results), and the NDJSON streams — one
// generic header/rows/trailer decoder with establishment-only retries,
// instantiated per endpoint (sweep cells, frontier nodes).

// Batch runs a heterogeneous list of registry ops in one exchange
// (POST /v1/batch). The call retries like any other — the batch
// answers 200 whenever its envelope was well-formed — but per-item
// failures come back inside the response, itemized with the status the
// standalone endpoint would have produced; they are the caller's to
// inspect, never retried by the client.
func (c *Client) Batch(ctx context.Context, req server.BatchRequest) (*server.BatchResponse, error) {
	return post[server.BatchRequest, server.BatchResponse](ctx, c, "/v1/batch", req)
}

// Compare runs k scenario x model pairs server-side (POST /v1/compare)
// and returns the per-node deltas and crossover table. It is a plain
// buffered registry op: cached, coalesced, and retried like any other.
func (c *Client) Compare(ctx context.Context, req server.CompareRequest) (*server.CompareResponse, error) {
	return post[server.CompareRequest, server.CompareResponse](ctx, c, "/v1/compare", req)
}

// SweepStreamResult summarizes one completed sweep stream: the header
// and trailer lines, plus how many rows the callback saw (always the
// full grid size on success).
type SweepStreamResult struct {
	Header  server.SweepStreamHeader
	Trailer server.SweepStreamTrailer
	Rows    int
}

// sweepStreamPath is the streamed form of the sweep endpoint.
const sweepStreamPath = "/v1/sweep?stream=ndjson"

// SweepStream evaluates a sweep as NDJSON (POST /v1/sweep?stream=ndjson),
// invoking row once per grid cell in flat row-major order — the exact
// order and bytes of the buffered response's points array — without
// ever holding the whole surface in memory. A row callback error stops
// the stream and surfaces to the caller.
//
// Retries only happen before the first row is delivered: establishment
// failures (connection errors, 429/5xx) go through the same
// backoff/failover schedule as buffered calls, but once the callback
// has seen a row the call is no longer transparently repeatable — rows
// would be delivered twice — so mid-stream failures are terminal.
func (c *Client) SweepStream(ctx context.Context, req server.SweepRequest, row func(server.SweepPointJSON) error) (*SweepStreamResult, error) {
	out := &SweepStreamResult{}
	rows, err := streamCall(ctx, c, sweepStreamPath, req, &out.Header, &out.Trailer, row)
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// FrontierStreamResult summarizes one completed frontier stream.
type FrontierStreamResult struct {
	Header  server.FrontierStreamHeader
	Trailer server.FrontierStreamTrailer
	Rows    int
}

// frontierStreamPath is the frontier's stream-only endpoint.
const frontierStreamPath = "/v1/frontier/stream"

// FrontierStream evaluates one trajectory set as NDJSON (POST
// /v1/frontier/stream), invoking row once per roadmap node in roadmap
// order with the whole design frontier at that node. The retry
// contract is SweepStream's: establishment-only.
func (c *Client) FrontierStream(ctx context.Context, req server.FrontierRequest, row func(server.FrontierRowJSON) error) (*FrontierStreamResult, error) {
	out := &FrontierStreamResult{}
	rows, err := streamCall(ctx, c, frontierStreamPath, req, &out.Header, &out.Trailer, row)
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// streamCall is the generic NDJSON stream exchange, shared by every
// streaming endpoint: marshal the request once, then attempt through
// retry. Establishment failures (connection errors, 429/5xx) retry with
// backoff and failover exactly like buffered calls, but once a row has
// reached the callback the call is no longer transparently repeatable,
// so the attempt settles and mid-stream failures are terminal. hdr and
// trl receive the decoded header and trailer lines; the returned int
// counts delivered rows.
func streamCall[Row any](ctx context.Context, c *Client, path string, req any, hdr, trl any, row func(Row) error) (int, error) {
	if row == nil {
		return 0, fmt.Errorf("client: %s requires a row callback", path)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, fmt.Errorf("client: %s: encoding request: %w", path, err)
	}
	var delivered int
	err = c.retry(ctx, path, func(ctx context.Context, base, id string, n int) (bool, error) {
		var err error
		delivered, err = attemptStream(ctx, c, base, path, body, id, n, hdr, trl, row)
		return delivered > 0, err
	})
	if err != nil {
		return 0, err
	}
	return delivered, nil
}

// streamProbe classifies one NDJSON line. Row lines never carry an
// "error", "feasible", or "nodes" key (neither SweepPointJSON nor
// FrontierRowJSON has one), the in-band error line always carries
// "error", and every trailer carries its marker key — "feasible" for
// the sweep, "nodes" (a count, never in a row) for the frontier — so
// pointer presence decides the line's kind. A new stream endpoint adds
// its trailer marker here.
type streamProbe struct {
	Error    *string `json:"error"`
	Feasible *int    `json:"feasible"`
	Nodes    *int    `json:"nodes"`
}

func (p *streamProbe) trailer() bool { return p.Feasible != nil || p.Nodes != nil }

// attemptStream is one wire exchange of an NDJSON stream: POST the
// body, decode the header line into hdr, hand decoded row lines to the
// callback as they arrive, and finish on the trailer line (decoded
// into trl) or an in-band error line. delivered counts rows handed to
// the callback — the caller uses it to decide whether a failure is
// still transparently retryable.
func attemptStream[Row any](ctx context.Context, c *Client, base, path string, body []byte, id string, n int, hdr, trl any, row func(Row) error) (delivered int, err error) {
	a := Attempt{Endpoint: path, N: n}
	if c.cfg.OnAttempt != nil {
		defer func() {
			a.Err = err
			c.cfg.OnAttempt(ctx, a)
		}()
	}
	res, err := c.send(ctx, http.MethodPost, base, path, body, id, &a)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()

	br := bufio.NewReader(res.Body)
	line, err := readLine(br)
	if err != nil {
		return 0, &TransportError{Endpoint: path, Err: fmt.Errorf("reading stream header: %w", err)}
	}
	if err := decodeJSON(line, hdr); err != nil {
		return 0, &TransportError{Endpoint: path, Err: fmt.Errorf("decoding stream header: %w", err)}
	}
	for {
		line, err := readLine(br)
		if err != nil {
			// The stream ended without a trailer: truncated. Terminal
			// when rows were already delivered, retryable otherwise.
			return delivered, &TransportError{Endpoint: path, Err: fmt.Errorf("stream truncated after %d row(s): %w", delivered, err)}
		}
		var probe streamProbe
		if err := decodeJSON(line, &probe); err != nil {
			return delivered, &TransportError{Endpoint: path, Err: fmt.Errorf("undecodable stream line: %w", err)}
		}
		switch {
		case probe.Error != nil:
			// In-band failure after the 200 header: the server could not
			// finish the evaluation. Terminal — the same request will fail
			// the same way for validation errors, and for deadline errors
			// the caller's context decides.
			return delivered, fmt.Errorf("client: %s: stream error after %d row(s): %s", path, delivered, *probe.Error)
		case probe.trailer():
			if err := decodeJSON(line, trl); err != nil {
				return delivered, &TransportError{Endpoint: path, Err: fmt.Errorf("decoding stream trailer: %w", err)}
			}
			return delivered, nil
		default:
			var r Row
			if err := decodeJSON(line, &r); err != nil {
				return delivered, &TransportError{Endpoint: path, Err: fmt.Errorf("decoding stream row: %w", err)}
			}
			delivered++
			if err := row(r); err != nil {
				return delivered, fmt.Errorf("client: %s: row callback: %w", path, err)
			}
		}
	}
}

// readLine reads one NDJSON line, rejecting EOF-without-newline as
// truncation so a half-written line never decodes as complete.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return bytes.TrimSuffix(line, []byte{'\n'}), nil
}
