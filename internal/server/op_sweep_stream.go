package server

import (
	"context"
)

// POST /v1/sweep?stream=ndjson — the sweep surface as NDJSON: one
// header line (the sweep's identity and axes), one line per grid cell
// in flat row-major order, one trailer line (feasible count + best
// cell). Rows are emitted as evaluation windows complete, so a
// million-cell sweep never buffers a whole response and a mid-stream
// deadline stops the grid between cells; memory is O(window), not
// O(cells), which is why the streaming cell limit is 20x the buffered
// one.
//
// Each cell line is encoded by the same sweepEnc.appendPoint the
// buffered response uses, so the concatenated rows are byte-identical
// to the buffered Points array for the same request
// (TestSweepStreamMatchesBuffered pins this across all model
// backends). The HTTP plumbing — gate, deadline, spans, in-band errors
// — lives in the generic stream pipeline (stream.go); this file is
// only the sweep-shaped frames.

const (
	// maxStreamSweepCells bounds one streamed sweep. The stream holds
	// only one evaluation window in memory, so the bound is about
	// tying up evaluation workers, not memory.
	maxStreamSweepCells = 2_000_000

	// sweepStreamChunk is the evaluation window: cells per parallel
	// CellsRange call, and the flush granularity. Large enough to keep
	// the worker pool busy, small enough that rows appear promptly and
	// cancellation is honored quickly.
	sweepStreamChunk = 2048
)

// SweepStreamHeader is the first NDJSON line: the sweep's identity —
// everything SweepResponse carries before its points. Model names the
// backend only for non-default requests, mirroring the buffered shape.
type SweepStreamHeader struct {
	Workload string     `json:"workload"`
	Node     string     `json:"node"`
	Design   string     `json:"design"`
	Axes     []AxisJSON `json:"axes"`
	Model    string     `json:"model,omitempty"`
}

// SweepStreamTrailer is the last NDJSON line: the reduction the
// buffered response carries after its points.
type SweepStreamTrailer struct {
	Feasible int             `json:"feasible"`
	Best     *SweepPointJSON `json:"best,omitempty"`
}

// SweepStreamError is an NDJSON error line: emitted in-band by the
// generic pipeline when the evaluation fails after the 200 header is
// already on the wire. A stream ending without a trailer always ends
// with one of these (or a broken connection).
type SweepStreamError struct {
	Error string `json:"error"`
}

// streamSweep is the sweep's streaming form: the route table pairs it
// with the buffered op on /v1/sweep and one counter, dispatched on
// `?stream=`.
var streamSweep = newStreamOp(buildSweepStream)

func buildSweepStream(req *SweepRequest, workers int) (string, streamFunc, error) {
	plan, name, err := planSweep(req, workers, maxStreamSweepCells)
	if err != nil {
		return name, nil, err
	}
	return name, func(ctx context.Context, e *streamEmitter) error {
		if err := e.EmitJSON(&SweepStreamHeader{
			Workload: plan.req.Workload,
			Node:     plan.req.Node,
			Design:   plan.design.Label,
			Axes:     plan.axesJSON(),
			Model:    plan.req.Model,
		}); err != nil {
			return err
		}
		if err := e.Flush(); err != nil {
			return err
		}
		size := plan.grid.Size()
		window := make([]SweepPointJSON, sweepStreamChunk)
		var enc sweepEnc
		var row []byte
		red := bestReducer{energy: plan.energy}
		for lo := 0; lo < size; lo += sweepStreamChunk {
			hi := min(lo+sweepStreamChunk, size)
			cells := window[:hi-lo]
			err := plan.grid.CellsRange(ctx, plan.workers, lo, hi, func(flat int, v []float64) error {
				cell, err := plan.evalCell(v)
				if err != nil {
					return err
				}
				cells[flat-lo] = cell
				return nil
			})
			if err != nil {
				return evalFailure(err, BadRequest)
			}
			for j := range cells {
				if row, err = enc.appendPoint(row[:0], &cells[j]); err != nil {
					return err
				}
				if err := e.Emit(row); err != nil {
					return err
				}
				red.observe(&cells[j])
			}
			if err := e.Flush(); err != nil {
				return err
			}
		}
		return e.EmitJSON(&SweepStreamTrailer{Feasible: red.feasible, Best: red.bestPtr()})
	}, nil
}
