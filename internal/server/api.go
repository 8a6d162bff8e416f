package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/codec"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/ucore"
)

// Error is an error with an HTTP status. Operations return it from
// validation and evaluation so the transport layer can map model errors
// to 4xx instead of a blanket 500. It marshals as the serving API's
// error body, {"error": message}.
type Error struct {
	Status  int    `json:"-"`
	Message string `json:"error"`
}

func (e *Error) Error() string { return e.Message }

// BadRequest builds a 400 Error: the request is malformed.
func BadRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Message: fmt.Sprintf(format, args...)}
}

// unprocessable builds a 422 Error: the request is well-formed but the
// model cannot produce a feasible answer for it.
func unprocessable(format string, args ...any) *Error {
	return &Error{Status: http.StatusUnprocessableEntity, Message: fmt.Sprintf(format, args...)}
}

// evalFailure classifies an evaluation error: context cancellation and
// deadline errors pass through untouched so the transport can map them
// to 503/504, as does a panic recovered by the worker pool (par.ErrPanic),
// which is a server fault (500) and never the request's; anything else
// is wrapped with mk (BadRequest or unprocessable).
func evalFailure(err error, mk func(string, ...any) *Error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, par.ErrPanic) {
		return err
	}
	return mk("%v", err)
}

// DecodeStrict decodes a request body into dst, rejecting unknown
// fields and trailing data, so typos in request bodies fail loudly
// instead of silently using defaults. The codec's plan decoder decides
// and decodes; only a rejected body is decoded again by encoding/json,
// whose error words the 400 (see codec.DecodeStrict).
func DecodeStrict(body []byte, dst any) error {
	if err := codec.DecodeStrict(body, dst); err != nil {
		return BadRequest("invalid request body: %v", err)
	}
	return nil
}

// canonicalKey derives the cache/coalescing key for a decoded,
// default-applied request: path, a NUL byte and the request's
// json.Marshal bytes, which the codec's encoder writes straight into
// the one string it allocates. Identical requests — regardless of JSON
// field order, whitespace, or spelling variants normalized during
// decoding — hash to the same key. Worker-count fields must already be
// cleared by the caller: results are byte-identical at every worker
// count, so worker counts must not fragment the cache. req should be a
// pointer, so that passing it boxes nothing.
func canonicalKey(path string, req any) (string, error) {
	return codec.Key(path, req)
}

// parseObjective validates the objective a request optimizes: speedup
// (the default) or energy.
func parseObjective(s string) (string, error) {
	switch s {
	case "", "speedup":
		return "speedup", nil
	case "energy":
		return "energy", nil
	default:
		return "", BadRequest("unknown objective %q (want speedup or energy)", s)
	}
}

// checkF validates a parallel fraction.
func checkF(f float64) error {
	if f < 0 || f > 1 || math.IsNaN(f) {
		return BadRequest("f must be in [0, 1], got %v", f)
	}
	return nil
}

// parseWorkload maps the HTTP spelling onto a catalog workload, as the
// CLI does.
func parseWorkload(s string) (paper.WorkloadID, error) {
	w, err := paper.ParseWorkload(s)
	if err != nil {
		return "", BadRequest("%v", err)
	}
	return w, nil
}

// parseDevice maps the HTTP spelling onto a catalog device.
func parseDevice(s string) (paper.DeviceID, error) {
	switch strings.ToLower(s) {
	case "corei7", "core i7", "core i7-960", "i7":
		return paper.CoreI7, nil
	case "gtx285":
		return paper.GTX285, nil
	case "gtx480":
		return paper.GTX480, nil
	case "r5870":
		return paper.R5870, nil
	case "lx760", "v6-lx760":
		return paper.LX760, nil
	case "asic":
		return paper.ASIC, nil
	default:
		return "", BadRequest("unknown device %q (want CoreI7, GTX285, GTX480, R5870, LX760, ASIC)", s)
	}
}

// DesignSpec selects the chip organization for a request: "sym" and
// "asym" are the CMP baselines, "het" needs U-core parameters — either a
// catalog device (published Table 5 values) or explicit (mu, phi).
type DesignSpec struct {
	Kind            string  `json:"kind"`
	Device          string  `json:"device,omitempty"`
	Mu              float64 `json:"mu,omitempty"`
	Phi             float64 `json:"phi,omitempty"`
	ExemptBandwidth bool    `json:"exemptBandwidth,omitempty"`
}

// resolve turns the spec into an evaluable design for a workload. It
// also canonicalizes the spec in place (kind lowercased, device in
// catalog spelling) so spelling variants of the same request share one
// cache key.
func (ds *DesignSpec) resolve(w paper.WorkloadID) (core.Design, error) {
	switch strings.ToLower(ds.Kind) {
	case "sym", "symcmp":
		ds.Kind = "sym"
		return core.Design{Kind: core.SymCMP, Label: "(0) SymCMP"}, nil
	case "asym", "asymcmp":
		ds.Kind = "asym"
		return core.Design{Kind: core.AsymCMP, Label: "(1) AsymCMP"}, nil
	case "het":
		ds.Kind = "het"
	default:
		return core.Design{}, BadRequest("unknown design kind %q (want sym, asym, het)", ds.Kind)
	}
	d := core.Design{Kind: core.Het, ExemptBandwidth: ds.ExemptBandwidth}
	switch {
	case ds.Device != "":
		if ds.Mu != 0 || ds.Phi != 0 {
			return core.Design{}, BadRequest("give either device or explicit (mu, phi), not both")
		}
		dev, err := parseDevice(ds.Device)
		if err != nil {
			return core.Design{}, err
		}
		ds.Device = string(dev)
		p, ok := ucore.PublishedParams(dev, w)
		if !ok {
			return core.Design{}, unprocessable("the paper has no published (mu, phi) for %s on %s", dev, w)
		}
		d.Label = string(dev)
		d.UCore = bounds.UCore{Mu: p.Mu, Phi: p.Phi}
	case ds.Mu > 0 && ds.Phi > 0:
		d.Label = "custom"
		d.UCore = bounds.UCore{Mu: ds.Mu, Phi: ds.Phi}
	default:
		return core.Design{}, BadRequest("het design needs a device or positive (mu, phi)")
	}
	if err := d.Validate(); err != nil {
		return core.Design{}, BadRequest("%v", err)
	}
	return d, nil
}

// BudgetsSpec is an explicit BCE-relative budget triple.
type BudgetsSpec struct {
	Area      float64 `json:"area"`
	Power     float64 `json:"power"`
	Bandwidth float64 `json:"bandwidth"`
}

// PointJSON is one evaluated design point on the wire.
type PointJSON struct {
	Label      string  `json:"label"`
	Kind       string  `json:"kind"`
	F          float64 `json:"f"`
	R          int     `json:"r"`
	N          float64 `json:"n"`
	Speedup    float64 `json:"speedup"`
	Limit      string  `json:"limit"`
	EnergyNorm float64 `json:"energyNorm"`
}

func pointJSON(p core.Point) PointJSON {
	return PointJSON{
		Label:      p.Design.Label,
		Kind:       p.Design.Kind.String(),
		F:          p.F,
		R:          p.R,
		N:          p.N,
		Speedup:    p.Speedup,
		Limit:      p.Limit.String(),
		EnergyNorm: p.EnergyNorm,
	}
}

// NodePointJSON is one trajectory sample on the wire.
type NodePointJSON struct {
	Node       string  `json:"node"`
	Valid      bool    `json:"valid"`
	R          int     `json:"r,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	Limit      string  `json:"limit,omitempty"`
	EnergyNode float64 `json:"energyNode,omitempty"`
}

// TrajectoryJSON is one design's roadmap evolution on the wire.
type TrajectoryJSON struct {
	Label  string          `json:"label"`
	Kind   string          `json:"kind"`
	Mu     float64         `json:"mu,omitempty"`
	Phi    float64         `json:"phi,omitempty"`
	F      float64         `json:"f"`
	Points []NodePointJSON `json:"points"`
}

func trajectoryJSON(ts []project.Trajectory) []TrajectoryJSON {
	out := make([]TrajectoryJSON, 0, len(ts))
	for _, t := range ts {
		tj := TrajectoryJSON{
			Label: t.Design.Label,
			Kind:  t.Design.Kind.String(),
			Mu:    t.Design.UCore.Mu,
			Phi:   t.Design.UCore.Phi,
			F:     t.F,
		}
		if len(t.Points) > 0 {
			tj.Points = make([]NodePointJSON, 0, len(t.Points))
		}
		for _, p := range t.Points {
			np := NodePointJSON{Node: p.Node.Name, Valid: p.Valid}
			if p.Valid {
				np.R = p.Point.R
				np.Speedup = p.Point.Speedup
				np.Limit = p.Point.Limit.String()
				np.EnergyNode = p.EnergyNode
			}
			tj.Points = append(tj.Points, np)
		}
		out = append(out, tj)
	}
	return out
}
