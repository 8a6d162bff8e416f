// appendjson.go is the reflection-free response encoder: a response
// type that implements appender serializes itself with the helpers
// below instead of going through encoding/json's reflection walk. The
// bytes must be identical — the result cache, the coalescer, and the
// golden fixtures all compare serialized responses — so the helpers
// reproduce encoding/json's exact formatting (float form selection,
// exponent cleanup, HTML-escaped strings) and the per-type encoders are
// fuzz-checked against json.Marshal in their own packages.
package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// appender is the opt-in fast-path a response type may implement: the
// operation pipeline calls AppendJSON instead of json.Marshal when
// present. The appended bytes must be exactly what json.Marshal would
// have produced for the same value. The pipeline appends into a pooled
// scratch buffer and hands callers an exact-size copy (cap == len), as
// json.Marshal does, so an implementation need not presize its output.
type appender interface {
	// AppendJSON appends the value's JSON encoding to b and returns the
	// extended slice.
	AppendJSON(b []byte) ([]byte, error)
}

// appendFloat appends f exactly as encoding/json encodes a float64:
// shortest representation, 'f' form except for very small or very large
// magnitudes which use 'e' form with the leading zero of a short
// exponent stripped (1e-09 -> 1e-9). Non-finite values are errors, as
// they are for json.Marshal.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("server: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string exactly as encoding/json
// does (HTML escaping on). The fast path covers plain printable ASCII;
// anything needing escapes is delegated to json.Marshal itself, so the
// bytes agree for every input.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			esc, err := json.Marshal(s)
			if err != nil { // unreachable: strings always marshal
				return append(b, `""`...)
			}
			return append(b, esc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloats appends a []float64 exactly as encoding/json does: null
// when nil, otherwise a comma-separated array.
func appendFloats(b []byte, vals []float64) ([]byte, error) {
	if vals == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, v); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}
