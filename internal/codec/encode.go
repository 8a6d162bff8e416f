package codec

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// This file is the encoder: it walks a value's plan and appends
// json.Marshal's bytes for it. The helpers reproduce encoding/json's
// formatting exactly: float form selection and exponent cleanup,
// HTML-escaped strings with invalid UTF-8 replaced, omitempty, map
// keys in sorted order, and a json.Marshaler's output compacted with
// HTML escaping. A type implementing Appender appends itself.

// Append appends json.Marshal(v)'s bytes to b. On an error, such as a
// non-finite float, it returns nil and the error.
func Append(b []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return append(b, "null"...), nil
	}
	p, err := encodePlan(rv.Type())
	if err != nil {
		return nil, err
	}
	return appendValue(b, p, rv)
}

// maxPooledEncode is the largest scratch buffer Marshal keeps; a rare
// huge value must not pin its buffer for the life of the process.
const maxPooledEncode = 1 << 20

var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Marshal returns json.Marshal(v)'s bytes, encoded into a pooled
// scratch buffer and copied out at exactly their length: a response
// outlives its request in the result cache, and spare capacity there
// would be held for as long as the entry lives.
func Marshal(v any) ([]byte, error) {
	bp := encodeBufs.Get().(*[]byte)
	b, err := Append((*bp)[:0], v)
	var out []byte
	if err == nil {
		out = make([]byte, len(b))
		copy(out, b)
	}
	if cap(b) <= maxPooledEncode {
		*bp = b
		encodeBufs.Put(bp)
	}
	return out, err
}

// Key returns prefix, a NUL byte and json.Marshal(v)'s bytes as one
// string: a cache key built in Marshal's pooled scratch buffer, so the
// string is its one allocation.
func Key(prefix string, v any) (string, error) {
	bp := encodeBufs.Get().(*[]byte)
	b := append(append((*bp)[:0], prefix...), 0)
	b, err := Append(b, v)
	var key string
	if err == nil {
		key = string(b)
	}
	if cap(b) <= maxPooledEncode {
		*bp = b
		encodeBufs.Put(bp)
	}
	return key, err
}

// appendValue appends v, which p describes.
func appendValue(b []byte, p *plan, v reflect.Value) ([]byte, error) {
	switch {
	case p.marshaler:
		return appendMarshaler(b, v)
	case p.appender:
		return addressable(v).(Appender).AppendJSON(b)
	}
	switch p.kind {
	case kindStruct:
		b = append(b, '{')
		first := true
		for i := range p.fields {
			f := &p.fields[i]
			fv := v.Field(f.index)
			if f.omitEmpty && isEmpty(fv) {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, f.key...)
			var err error
			if b, err = appendValue(b, f.plan, fv); err != nil {
				return nil, err
			}
		}
		return append(b, '}'), nil
	case kindSlice:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i, n := 0, v.Len(); i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendValue(b, p.elem, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return append(b, ']'), nil
	case kindPtr:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		return appendValue(b, p.elem, v.Elem())
	case kindMap:
		return appendMap(b, p, v)
	case kindRaw:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		return appendCompact(b, v.Bytes())
	case kindString:
		return AppendString(b, v.String()), nil
	case kindBool:
		return strconv.AppendBool(b, v.Bool()), nil
	case kindInt:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case kindUint:
		return strconv.AppendUint(b, v.Uint(), 10), nil
	case kindFloat:
		return appendFloat(b, v.Float(), p.bits)
	}
	return nil, fmt.Errorf("codec: cannot encode %v", p.typ) // unreachable: encodePlan refuses kindNone
}

// addressable returns v as an interface holding a pointer to it when v
// is addressable, which boxes nothing; a value-receiver method is in
// the pointer's method set too.
func addressable(v reflect.Value) any {
	if v.CanAddr() {
		return v.Addr().Interface()
	}
	return v.Interface()
}

// isEmpty is encoding/json's omitempty test.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Struct:
		return false
	}
	return v.IsZero()
}

// appendMap appends a map with string keys in sorted order. Each entry
// is copied out once, the key as a string and the value into one slice,
// so a map costs the same three allocations whatever its size.
func appendMap(b []byte, p *plan, v reflect.Value) ([]byte, error) {
	if v.IsNil() {
		return append(b, "null"...), nil
	}
	type entry struct {
		key string
		i   int
	}
	var small [16]entry
	entries := small[:0]
	k := reflect.New(v.Type().Key()).Elem()
	vals := reflect.MakeSlice(reflect.SliceOf(p.elem.typ), v.Len(), v.Len())
	var it reflect.MapIter
	it.Reset(v)
	for i := 0; it.Next(); i++ {
		k.SetIterKey(&it)
		vals.Index(i).SetIterValue(&it)
		entries = append(entries, entry{k.String(), i})
	}
	slices.SortFunc(entries, func(x, y entry) int { return strings.Compare(x.key, y.key) })
	b = append(b, '{')
	for i := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(AppendString(b, entries[i].key), ':')
		var err error
		if b, err = appendValue(b, p.elem, vals.Index(entries[i].i)); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendMarshaler appends a json.Marshaler's output as encoding/json
// does: validated, compacted and HTML-escaped.
func appendMarshaler(b []byte, v reflect.Value) ([]byte, error) {
	out, err := addressable(v).(json.Marshaler).MarshalJSON()
	if err != nil {
		return nil, &json.MarshalerError{Type: v.Type(), Err: err}
	}
	return appendCompact(b, out)
}

// appendCompact appends the one JSON value in src, which whitespace may
// surround, without the whitespace outside its strings, and with <, >,
// &, U+2028 and U+2029 escaped inside them, as encoding/json compacts a
// json.Marshaler's or a json.RawMessage's bytes.
func appendCompact(b, src []byte) ([]byte, error) {
	d := decoder{data: src}
	if err := d.skip(); err != nil {
		return nil, err
	}
	if d.space(); d.off < len(src) {
		return nil, d.invalid("after top-level value")
	}
	inString, start := false, 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case !inString:
			switch c {
			case ' ', '\t', '\n', '\r':
				b = append(b, src[start:i]...)
				start = i + 1
			case '"':
				inString = true
			}
		case c == '\\':
			i++ // the escaped byte is never special here
		case c == '"':
			inString = false
		case c == '<' || c == '>' || c == '&':
			b = append(b, src[start:i]...)
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			start = i + 1
		case c == 0xE2 && i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8:
			b = append(b, src[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
			i += 2
			start = i + 1
		}
	}
	return append(b, src[start:]...), nil
}

// AppendFloat appends f exactly as encoding/json encodes a float64:
// the shortest representation, in 'f' form except for magnitudes below
// 1e-6 or from 1e21, which use 'e' form with a short exponent's leading
// zero stripped (1e-09 -> 1e-9). A non-finite value is an error, as it
// is for json.Marshal.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	return appendFloat(b, f, 64)
}

// appendFloat is AppendFloat for a float of the given bit size; a
// float32 takes its form cutoffs in float32.
func appendFloat(b []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("codec: unsupported value: %v", strconv.FormatFloat(f, 'g', -1, bits))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendFloats appends a []float64 exactly as encoding/json does: null
// when nil, otherwise a comma-separated array.
func AppendFloats(b []byte, vals []float64) ([]byte, error) {
	if vals == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = AppendFloat(b, v); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a JSON string holds as they are under
// encoding/json's HTML escaping: printable ASCII and DEL, except the
// quote, the backslash, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// AppendString appends s as a JSON string exactly as encoding/json
// encodes one, HTML escaping on: the quote and backslash escaped, \b,
// \f, \n, \r and \t by name, other control bytes and <, > and & as
// \u00XX, U+2028 and U+2029 as \u202X, and each invalid UTF-8 byte as
// \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
