package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
)

// DecodeStrict unmarshals JSON rejecting unknown fields, so typos in
// request bodies fail loudly instead of silently using defaults.
func DecodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return BadRequest("invalid request body: %v", err)
	}
	// Only whitespace may follow the value. dec.More reports false before
	// a stray ']' or '}', so ask for the next token: it must be EOF.
	if _, err := dec.Token(); err != io.EOF {
		return BadRequest("invalid request body: trailing data")
	}
	return nil
}

// CanonicalKey derives the cache/coalescing key for a decoded,
// default-applied request. Identical requests — regardless of JSON field
// order, whitespace, or spelling variants normalized during decoding —
// hash to the same key. Worker-count fields must already be cleared by
// the caller: results are byte-identical at every worker count, so
// worker counts must not fragment the cache.
func CanonicalKey(endpoint string, req any) (string, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	return endpoint + "\x00" + string(b), nil
}

// ParseObjective validates the objective a request optimizes: speedup
// (the default) or energy.
func ParseObjective(s string) (string, error) {
	switch s {
	case "", "speedup":
		return "speedup", nil
	case "energy":
		return "energy", nil
	default:
		return "", BadRequest("unknown objective %q (want speedup or energy)", s)
	}
}

// CheckF validates a parallel fraction.
func CheckF(f float64) error {
	if f < 0 || f > 1 || math.IsNaN(f) {
		return BadRequest("f must be in [0, 1], got %v", f)
	}
	return nil
}
