package codec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the decoder: one validating pass over a body that
// decodes straight into the typed value, where encoding/json scans the
// whole input once to validate it and again to decode it.
//
// Four things keep a body cheap to decode, down to one allocation per
// non-empty slice and a few for its strings:
//
//   - Slices are allocated once, at their exact length. An array decodes
//     into a scratch slice kept with its plan and reused across calls,
//     and at the ']' its elements are copied into the target.
//   - Strings are copied into one arena per body and handed out as
//     substrings of it. Equal plain strings within one body share memory:
//     a per-call table hands out the string already copied for an earlier
//     equal literal, since a response repeats the same labels, kinds and
//     node names hundreds of times. Nothing aliases the input.
//   - Numbers convert in the scan that validates them: an integer of at
//     most 18 digits converts directly, and so does a float64 of at most
//     19 significant digits with a power of ten within ±19, by one exact
//     128-bit multiply or divide and one rounding. Every other literal
//     goes to strconv.
//   - The key a struct expects next, the one after the last one matched,
//     is compared as quoted bytes where it stands, before any scan.
//
// Decode's contract is json.Unmarshal's, including the quieter rules: a
// key matches a field's exact name first, then the first field in
// declaration order under bytes.EqualFold; unknown keys are skipped but
// validated; a duplicate key decodes again into the value already
// there; null sets slices, maps and pointers to nil, a json.RawMessage
// to "null", and leaves every other kind alone; an empty array is an
// empty, non-nil slice; a json.Unmarshaler gets the raw bytes of its
// value, null included. DecodeStrict adds the two rules of a strict
// json.Decoder: an unknown key in a struct and anything but whitespace
// after the value are rejections.

// maxDepth is encoding/json's nesting limit: 10000 open arrays and
// objects decode, one more is an error.
const maxDepth = 10000

// field returns the index in p.fields of the field key names, or -1.
func (p *plan) field(key []byte) int {
	for i := range p.fields {
		if bytes.Equal(key, p.fields[i].name) {
			return i
		}
	}
	for i := range p.fields {
		if bytes.EqualFold(key, p.fields[i].name) {
			return i
		}
	}
	return -1
}

// Decode decodes data into v, a non-nil pointer, with json.Unmarshal's
// contract (see the top of this file). Decoded strings and raw messages
// are copies: nothing in v aliases data, though the strings decoded from
// one body share one arena, and equal ones one copy.
func Decode(data []byte, v any) error {
	rv, p, err := target(v)
	if err != nil {
		return err
	}
	return run(data, p, rv, false)
}

// ErrTrailingData is DecodeStrict's error for a value followed by
// anything but whitespace.
var ErrTrailingData = errors.New("trailing data")

// DecodeStrict decodes data into v, a non-nil pointer, as a json.Decoder
// with DisallowUnknownFields decodes its first value, and rejects data
// unless only whitespace follows that value. The plan decoder alone
// decides whether data is accepted and what v holds. A rejected input is
// decoded once more, by that json.Decoder into a fresh value of v's
// type, and its error is returned (ErrTrailingData when the value itself
// decoded), so a message built from the error reads exactly as it does
// with encoding/json. Should that decoder accept what the plan rejected,
// which FuzzDecodeStrictMatchesEncodingJSON holds never happens, the
// plan's own error is returned.
func DecodeStrict(data []byte, v any) error {
	rv, p, err := target(v)
	if err != nil {
		return err
	}
	if err := run(data, p, rv, true); err != nil {
		if jerr := decodeStrictJSON(data, rv.Type().Elem()); jerr != nil {
			return jerr
		}
		return err
	}
	return nil
}

// decodeStrictJSON is the encoding/json decode DecodeStrict matches. It
// runs only on a rejected input, to word the rejection.
func decodeStrictJSON(data []byte, t reflect.Type) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(reflect.New(t).Interface()); err != nil {
		return err
	}
	// dec.More reports false before a stray ']' or '}', so the next token
	// must be EOF.
	if _, err := dec.Token(); err != io.EOF {
		return ErrTrailingData
	}
	return nil
}

// target returns the value v points to and its plan.
func target(v any) (reflect.Value, *plan, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return rv, nil, &json.InvalidUnmarshalError{Type: reflect.TypeOf(v)}
	}
	p, err := decodePlan(rv.Type().Elem())
	return rv, p, err
}

// run decodes data into the value rv points to, which p describes.
func run(data []byte, p *plan, rv reflect.Value, strict bool) error {
	d := decoder{data: data, strict: strict}
	if err := d.value(p, rv.Elem()); err != nil {
		return err
	}
	if d.space(); d.off < len(d.data) {
		if strict {
			return ErrTrailingData
		}
		return d.invalid("after top-level value")
	}
	return nil
}

// syntaxError is malformed input at a byte offset.
type syntaxError struct {
	msg string
	off int
}

func (e *syntaxError) Error() string { return fmt.Sprintf("%s (offset %d)", e.msg, e.off) }

// decoder is one pass over data; depth counts the open arrays and
// objects, arena holds the bytes of every string decoded so far, and
// strs some of those strings (see intern). strict rejects unknown keys.
type decoder struct {
	data   []byte
	off    int
	depth  int
	strict bool
	arena  strings.Builder
	strs   [64]string
}

func (d *decoder) eof() error {
	return &syntaxError{msg: "unexpected end of JSON input", off: len(d.data)}
}

// invalid reports the byte at d.off, or the end of input.
func (d *decoder) invalid(context string) error {
	if d.off >= len(d.data) {
		return d.eof()
	}
	return &syntaxError{msg: fmt.Sprintf("invalid character %q %s", d.data[d.off], context), off: d.off}
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	if d.space(); d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// open consumes the '[' or '{' at d.off.
func (d *decoder) open() error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return &syntaxError{msg: "exceeded max depth", off: d.off - 1}
	}
	return nil
}

// more consumes the ',' or the closing byte after a member, reporting
// whether it was the close.
func (d *decoder) more(close byte) (bool, error) {
	switch d.peek() {
	case ',':
		d.off++
		return false, nil
	case close:
		d.off++
		d.depth--
		return true, nil
	}
	return false, d.invalid("after a member")
}

// emptyClose consumes close when it follows the open directly.
func (d *decoder) emptyClose(close byte) bool {
	if d.peek() == close {
		d.off++
		d.depth--
		return true
	}
	return false
}

// typeError reports a well-formed value of the wrong JSON type for p,
// or a malformed one.
func (d *decoder) typeError(p *plan) error {
	var what string
	switch c := d.data[d.off]; {
	case c == '{':
		what = "object"
	case c == '[':
		what = "array"
	case c == '"':
		what = "string"
	case c == 't' || c == 'f':
		what = "bool"
	case c == '-' || isDigit(c):
		what = "number"
	default:
		return d.invalid("looking for beginning of value")
	}
	return &json.UnmarshalTypeError{Value: what, Type: p.typ, Offset: int64(d.off)}
}

// value decodes the value at d.off into v, which p describes.
func (d *decoder) value(p *plan, v reflect.Value) error {
	c := d.peek()
	if d.off >= len(d.data) {
		return d.eof()
	}
	if p.unmarshaler {
		start := d.off
		if err := d.skip(); err != nil {
			return err
		}
		return v.Addr().Interface().(json.Unmarshaler).UnmarshalJSON(d.data[start:d.off])
	}
	if c == 'n' {
		if err := d.literal("null"); err != nil {
			return err
		}
		switch p.kind {
		case kindRaw:
			v.SetBytes(append(v.Bytes()[:0], "null"...))
		case kindSlice, kindMap, kindPtr:
			v.SetZero()
		}
		return nil
	}
	switch p.kind {
	case kindStruct:
		if c != '{' {
			return d.typeError(p)
		}
		return d.object(p, v)
	case kindSlice:
		if c != '[' {
			return d.typeError(p)
		}
		return d.array(p, v)
	case kindMap:
		if c != '{' {
			return d.typeError(p)
		}
		return d.mapObject(p, v)
	case kindPtr:
		if v.IsNil() {
			v.Set(reflect.New(p.typ.Elem()))
		}
		return d.value(p.elem, v.Elem())
	case kindRaw:
		start := d.off
		if err := d.skip(); err != nil {
			return err
		}
		v.SetBytes(append(v.Bytes()[:0], d.data[start:d.off]...))
		return nil
	case kindString:
		if c != '"' {
			return d.typeError(p)
		}
		s, err := d.str()
		if err != nil {
			return err
		}
		v.SetString(s)
		return nil
	case kindBool:
		if c != 't' && c != 'f' {
			return d.typeError(p)
		}
		lit := "false"
		if c == 't' {
			lit = "true"
		}
		if err := d.literal(lit); err != nil {
			return err
		}
		v.SetBool(c == 't')
		return nil
	}
	if c != '-' && !isDigit(c) {
		return d.typeError(p)
	}
	start := d.off
	num, err := d.number()
	if err != nil {
		return err
	}
	switch p.kind {
	case kindInt:
		n, ok := num.small()
		i := int64(n)
		if !ok {
			i, err = strconv.ParseInt(string(num.lit), 10, 64)
		} else if num.neg {
			i = -i
		}
		if err != nil || v.OverflowInt(i) {
			return rangeError(p, num.lit, start)
		}
		v.SetInt(i)
	case kindUint:
		n, ok := num.small()
		if !ok || num.neg {
			n, err = strconv.ParseUint(string(num.lit), 10, 64)
		}
		if err != nil || v.OverflowUint(n) {
			return rangeError(p, num.lit, start)
		}
		v.SetUint(n)
	default:
		f, ok := num.float64()
		if !ok || p.bits != 64 {
			f, err = strconv.ParseFloat(string(num.lit), p.bits)
		}
		if err != nil {
			return rangeError(p, num.lit, start)
		}
		v.SetFloat(f)
	}
	return nil
}

// rangeError reports a well-formed number p's type cannot hold.
func rangeError(p *plan, num []byte, off int) error {
	return &json.UnmarshalTypeError{Value: "number " + string(num), Type: p.typ, Offset: int64(off)}
}

// object decodes a JSON object into the struct v.
func (d *decoder) object(p *plan, v reflect.Value) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.emptyClose('}') {
		return nil
	}
	next := 0
	for {
		// Keys usually arrive in declaration order, so the field after the
		// last one matched is tried first, on the bytes as they stand. A
		// tag name holds no quote, backslash or control byte, so equal
		// bytes are an equal key.
		i := next
		if i >= len(p.fields) || !d.quoted(p.fields[i].name) {
			key, err := d.key()
			if err != nil {
				return err
			}
			if i = p.field(key); i < 0 && d.strict {
				return fmt.Errorf("json: unknown field %q", key)
			}
		} else if err := d.colon(); err != nil {
			return err
		}
		var err error
		if i >= 0 {
			f := &p.fields[i]
			next = i + 1
			err = d.value(f.plan, v.Field(f.index))
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if done, err := d.more('}'); done || err != nil {
			return err
		}
	}
}

// mapObject decodes a JSON object into the map v. Each value decodes
// from zero: a duplicate key replaces the earlier value.
func (d *decoder) mapObject(p *plan, v reflect.Value) error {
	if err := d.open(); err != nil {
		return err
	}
	if v.IsNil() {
		v.Set(reflect.MakeMap(p.typ))
	}
	if d.emptyClose('}') {
		return nil
	}
	// SetMapIndex copies the key and the element, so one of each serves
	// every member.
	k, elem := reflect.New(p.typ.Key()).Elem(), reflect.New(p.elem.typ).Elem()
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		elem.SetZero()
		if err := d.value(p.elem, elem); err != nil {
			return err
		}
		k.SetString(d.intern(key))
		v.SetMapIndex(k, elem)
		if done, err := d.more('}'); done || err != nil {
			return err
		}
	}
}

// maxScratchBytes bounds the scratch slice a plan keeps for the next
// array; one grown past it by a huge response is dropped after use.
const maxScratchBytes = 1 << 20

// array decodes a JSON array into the slice v. The elements decode into
// a scratch slice from p's pool, and at the ']' they are copied into v,
// which is allocated once, at the array's length, when its capacity is
// short. An empty array sets v to p's shared empty slice.
//
// That is encoding/json's result. It decodes in place over the elements
// already in v, up to v's capacity: a shorter duplicate key leaves stale
// elements past the length, which a longer one reuses. So the scratch
// starts from a copy of all of them, and v keeps its backing array when
// it holds the array. A nested array of the same type, which no client
// type has, takes a second scratch slice from the pool.
func (d *decoder) array(p *plan, v reflect.Value) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.emptyClose(']') {
		v.Set(p.empty)
		return nil
	}
	sp, _ := p.scratch.Get().(*reflect.Value)
	if sp == nil {
		s := reflect.New(p.typ).Elem()
		sp = &s
	}
	s := *sp
	if c := v.Cap(); c > 0 {
		v.SetLen(c)
		s.Grow(c)
		s.SetLen(c)
		reflect.Copy(s, v)
	}
	n := 0
	for {
		if n == s.Len() {
			if n == s.Cap() {
				s.Grow(1)
			}
			s.SetLen(n + 1)
		}
		// On an error the scratch slice is not returned to the pool, so
		// what it holds does not matter.
		if err := d.value(p.elem, s.Index(n)); err != nil {
			return err
		}
		n++
		done, err := d.more(']')
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	if v.Cap() < n {
		v.SetZero()
		v.Grow(n)
	}
	v.SetLen(n)
	reflect.Copy(v, s)
	if s.Cap()*int(p.elem.typ.Size()) <= maxScratchBytes {
		s.Clear()
		s.SetLen(0)
		p.scratch.Put(sp)
	}
	return nil
}

// key consumes an object key and its colon, returning the unquoted key.
// A plain key is returned as a subslice of the input.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.invalid("looking for beginning of object key string")
	}
	start, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	key := d.data[start+1 : d.off-1]
	if !plain {
		key = unquote(nil, key)
	}
	return key, d.colon()
}

// quoted consumes the string literal at d.off, after whitespace, when
// it is exactly name between quotes, and reports whether it was.
func (d *decoder) quoted(name []byte) bool {
	if d.peek() != '"' {
		return false
	}
	start, end := d.off+1, d.off+1+len(name)
	if end < len(d.data) && d.data[end] == '"' && bytes.Equal(d.data[start:end], name) {
		d.off = end + 1
		return true
	}
	return false
}

// colon consumes the colon after an object key.
func (d *decoder) colon() error {
	if d.peek() != ':' {
		return d.invalid("after object key")
	}
	d.off++
	return nil
}

// str consumes a string literal and returns its value.
func (d *decoder) str() (string, error) {
	start, plain, err := d.scanString()
	if err != nil {
		return "", err
	}
	lit := d.data[start+1 : d.off-1]
	if plain {
		return d.intern(lit), nil
	}
	var buf [128]byte
	return d.copyString(unquote(buf[:0], lit)), nil
}

// intern returns b as a string: the copy made for an equal string
// earlier in this body when strs holds it, else a fresh copy that takes
// a slot. A string hashes to a slot and may sit in any of the next few;
// when they are all taken by other strings, it replaces the first.
func (d *decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	const probes = 4
	for i := uint32(0); i < probes; i++ {
		slot := &d.strs[(h+i)%uint32(len(d.strs))]
		if *slot == string(b) {
			return *slot
		}
		if *slot == "" {
			*slot = d.copyString(b)
			return *slot
		}
	}
	slot := &d.strs[h%uint32(len(d.strs))]
	*slot = d.copyString(b)
	return *slot
}

// copyString appends b to the arena and returns it as a substring. The
// arena only grows: a string already handed out keeps the bytes it was
// cut from when a later append moves the arena.
func (d *decoder) copyString(b []byte) string {
	if d.arena.Cap() == 0 {
		// A body's distinct strings rarely come to a sixteenth of it.
		d.arena.Grow(max(len(b), min(max(len(d.data)/16, 64), 4096)))
	}
	start := d.arena.Len()
	d.arena.Write(b)
	return d.arena.String()[start:]
}

// unquote appends the value of a validated string literal's contents
// that has escapes or non-ASCII bytes to b, as encoding/json decodes
// it: escapes decode, a surrogate pair joins into one rune, and a lone
// surrogate or an invalid UTF-8 byte becomes U+FFFD.
func unquote(b, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\' && s[i+1] == 'u':
			r := hex4(s[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					r2 = hex4(s[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
		case c == '\\':
			b = append(b, unescape[s[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return b
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes the four validated hex digits at the start of s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// plainByte marks the bytes a plain string literal holds as they are:
// everything from 0x20 to 0x7f except the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString validates the string literal at d.off and moves past it.
// It returns the offset of the opening quote and whether the literal is
// plain: no escapes and no byte >= 0x80, so its contents are its value.
func (d *decoder) scanString() (start int, plain bool, err error) {
	start, plain = d.off, true
	data := d.data
	for i := start + 1; i < len(data); {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i >= len(data) {
			break
		}
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return start, plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				return 0, false, d.eof()
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(data) {
						return 0, false, d.eof()
					}
					if !isHex(data[k]) {
						d.off = k
						return 0, false, d.invalid("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				d.off = i + 1
				return 0, false, d.invalid("in string escape code")
			}
		case c < 0x20:
			d.off = i
			return 0, false, d.invalid("in string literal")
		default: // c >= 0x80
			plain = false
			i++
		}
	}
	return 0, false, d.eof()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// numLit is a validated number literal. It has digits significant
// decimal digits; when there are at most 19, its value is
// ±mant × 10^exp. integral means it has neither a fraction nor an
// exponent.
type numLit struct {
	lit      []byte
	mant     uint64
	exp      int
	digits   int
	neg      bool
	integral bool
}

// small returns the magnitude of an integer literal of at most 18
// digits, which any int64 holds.
func (n *numLit) small() (uint64, bool) {
	return n.mant, n.integral && n.digits <= 18
}

// pow10 holds the powers of ten a uint64 holds, 10^0 through 10^19.
var pow10 = func() (t [20]uint64) {
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = t[i-1] * 10
	}
	return t
}()

// float64 converts a literal of at most 19 significant digits, whose
// mantissa is exact, with a power of ten within ±19. mant × 10^exp (or
// mant / 10^-exp) is formed as a 128-bit product (or a 64-bit quotient
// of at least 64 significant bits and a remainder) with the inexact
// bits folded into a sticky low bit; float64 of that rounds once, to
// nearest even, and math.Ldexp scales it exactly. That is the correctly
// rounded value, which is strconv's.
func (n *numLit) float64() (float64, bool) {
	if n.digits > 19 || n.exp < -19 || n.exp > 19 {
		return 0, false
	}
	m := n.mant
	var f float64
	switch {
	case m == 0:
	case n.exp >= 0:
		hi, lo := bits.Mul64(m, pow10[n.exp])
		s := bits.Len64(hi)
		q := hi<<(64-s) | lo>>s
		if lo<<(64-s) != 0 {
			q |= 1
		}
		f = math.Ldexp(float64(q), s)
	default:
		// Both normalized to a top bit of one, m·2^64/d, or m·2^63/d when
		// m >= d, lies in [2^63, 2^64).
		d := pow10[-n.exp]
		lm, ld := bits.LeadingZeros64(m), bits.LeadingZeros64(d)
		m, d = m<<lm, d<<ld
		hi, lo, e := m, uint64(0), 64
		if m >= d {
			hi, lo, e = m>>1, m<<63, 63
		}
		q, r := bits.Div64(hi, lo, d)
		if r != 0 {
			q |= 1
		}
		f = math.Ldexp(float64(q), ld-lm-e)
	}
	if n.neg {
		f = -f
	}
	return f, true
}

// digitsAt consumes the digits at data[i:] into n's mantissa and
// returns the offset after them. Leading zeros are not significant;
// past 19 significant digits only the count grows.
func (n *numLit) digitsAt(data []byte, i int) int {
	mant, digits := n.mant, n.digits
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		if digits < 19 {
			mant = mant*10 + uint64(c)
			if mant == 0 {
				continue
			}
		}
		digits++
	}
	n.mant, n.digits = mant, digits
	return i
}

// number consumes a number in the strict JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (d *decoder) number() (numLit, error) {
	data, start := d.data, d.off
	n := numLit{integral: true}
	i := start
	if i < len(data) && data[i] == '-' {
		n.neg = true
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = n.digitsAt(data, i)
	default:
		return n, d.badNumber(i, "in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		if i++; i >= len(data) || !isDigit(data[i]) {
			return n, d.badNumber(i, "after decimal point in numeric literal")
		}
		frac := i
		i = n.digitsAt(data, i)
		n.exp, n.integral = frac-i, false
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		n.integral = false
		sign := 1
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			if data[i] == '-' {
				sign = -1
			}
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			return n, d.badNumber(i, "in exponent of numeric literal")
		}
		// Any exponent past 10000 is far outside the fast path.
		e := 0
		for ; i < len(data) && isDigit(data[i]); i++ {
			if e < 10000 {
				e = e*10 + int(data[i]-'0')
			}
		}
		n.exp += sign * e
	}
	d.off = i
	n.lit = data[start:i]
	return n, nil
}

func (d *decoder) badNumber(i int, context string) error {
	d.off = i
	return d.invalid(context)
}

// literal consumes the literal lit (true, false or null).
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) {
			return d.eof()
		}
		if d.data[d.off] != lit[i] {
			return d.invalid("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// skip consumes one value without decoding it, validating it as
// encoding/json would.
func (d *decoder) skip() error {
	c := d.peek()
	if d.off >= len(d.data) {
		return d.eof()
	}
	switch {
	case c == '{':
		if err := d.open(); err != nil {
			return err
		}
		if d.emptyClose('}') {
			return nil
		}
		for {
			if _, err := d.key(); err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
			if done, err := d.more('}'); done || err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		if d.emptyClose(']') {
			return nil
		}
		for {
			if err := d.skip(); err != nil {
				return err
			}
			if done, err := d.more(']'); done || err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	}
	return d.invalid("looking for beginning of value")
}
