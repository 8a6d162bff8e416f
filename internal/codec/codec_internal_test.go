package codec

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// TestFloatPathMatchesStrconv converts random literals of 1 to 19
// digits, with a point anywhere and an exponent around ±19, and checks
// that every one the in-scan path takes converts to strconv's bits.
func TestFloatPathMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	taken := 0
	for i := 0; i < 100_000; i++ {
		digits := []byte(strconv.FormatUint(rng.Uint64(), 10))
		digits = digits[:1+rng.Intn(min(19, len(digits)))]
		if rng.Intn(2) == 0 {
			digits[len(digits)-1] = '5' // near a halfway case more often
		}
		lit := string(digits)
		if dot := rng.Intn(len(digits) + 1); dot > 0 && dot < len(digits) {
			lit = lit[:dot] + "." + lit[dot:]
		}
		if rng.Intn(2) == 0 {
			lit = "-" + lit
		}
		lit += "e" + strconv.Itoa(rng.Intn(43)-21)
		d := decoder{data: []byte(lit)}
		n, err := d.number()
		if err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		got, ok := n.float64()
		if !ok {
			continue
		}
		taken++
		if want, _ := strconv.ParseFloat(lit, 64); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: in-scan %v (%#x), strconv %v (%#x)", lit, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if taken < 50_000 {
		t.Fatalf("only %d of 100000 literals took the in-scan path", taken)
	}
}

// TestAppendFloatMatchesMarshal formats floats of both sizes across the
// 'f'/'e' cutoffs, and the non-finite ones json.Marshal refuses.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []float64{0, math.Copysign(0, -1), 1e-6, 1e-7, 9.99999e-7, 1e20, 1e21, 1e21 - 65536, -1e-9, 5e-324, math.MaxFloat64, float64(math.MaxFloat32), 1.5e-45}
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Ldexp(rng.Float64(), rng.Intn(160)-80)*float64(1-2*rng.Intn(2)))
	}
	for _, f := range vals {
		for _, v := range []any{f, float32(f)} {
			want, werr := json.Marshal(v)
			got, gerr := Marshal(v)
			if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("%T %v: Marshal %s (%v), json.Marshal %s (%v)", v, v, got, gerr, want, werr)
			}
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) succeeded, want an error", f)
		}
		if _, err := Marshal(struct{ F []float64 }{[]float64{1, f}}); err == nil {
			t.Errorf("Marshal of %v succeeded, want an error", f)
		}
	}
}

// TestAppendCompactMatchesMarshal encodes raw messages: encoding/json
// compacts each and escapes <, >, & and U+2028/9 in its strings, and
// refuses one that is not exactly one JSON value.
func TestAppendCompactMatchesMarshal(t *testing.T) {
	for _, raw := range []string{
		` { "a" : [ 1 , 2 ] , "b" : "x < y & z > w  " } `,
		"\"caf\xc3\xa9 \xff\\u003c\\\"<\"",
		`"\\"`, `[]`, `{}`, `null`, ` 5 `, `-1.5e3`,
		``, ` `, `{`, `1 2`, `{"a":1}}`, `nul`, `"a`, `[1,]`,
	} {
		v := struct {
			R json.RawMessage `json:"r"`
		}{json.RawMessage(raw)}
		want, werr := json.Marshal(v)
		got, gerr := Marshal(v)
		if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
			t.Errorf("%q: Marshal %s (%v), json.Marshal %s (%v)", raw, got, gerr, want, werr)
		}
	}
}

// TestDecodeStrictRejections holds the two strict rules, at the top
// level and nested, and that the rejection's error is encoding/json's.
func TestDecodeStrictRejections(t *testing.T) {
	type inner struct {
		A int `json:"a"`
	}
	type outer struct {
		In  inner            `json:"in"`
		M   map[string]inner `json:"m"`
		Raw json.RawMessage  `json:"raw"`
	}
	for _, tc := range []struct {
		body string
		ok   bool
		want string
	}{
		{`{"in":{"a":1},"m":{"k":{"a":2}},"raw":{"zz":1}}`, true, ""},
		{`{"IN":{"A":1}} ` + "\n", true, ""},
		{`{"zz":1}`, false, `json: unknown field "zz"`},
		{`{"in":{"b":1}}`, false, `json: unknown field "b"`},
		{`{"m":{"k":{"b":1}}}`, false, `json: unknown field "b"`},
		{`{}x`, false, "trailing data"},
		{`{}{}`, false, "trailing data"},
		{`{}]`, false, "trailing data"},
		{``, false, "EOF"},
	} {
		var got outer
		err := DecodeStrict([]byte(tc.body), &got)
		if tc.ok != (err == nil) || !tc.ok && err.Error() != tc.want {
			t.Errorf("%q: error %v, want %q", tc.body, err, tc.want)
		}
		if err := Decode([]byte(tc.body), new(outer)); err != nil && tc.ok {
			t.Errorf("%q: Decode: %v", tc.body, err)
		}
	}
}

// TestPlanRefusals: the builder refuses what it cannot decode or
// encode exactly, in the direction it cannot.
func TestPlanRefusals(t *testing.T) {
	type recursive struct {
		Next *recursive
	}
	for _, tc := range []struct {
		v              any
		decode, encode bool // whether each plan builds
	}{
		{struct{ A any }{}, false, false},
		{struct{ A [2]int }{}, false, false},
		{struct{ A []byte }{}, false, false},
		{struct{ A map[int]string }{}, false, false},
		{struct {
			A int `json:",string"`
		}{}, false, false},
		{struct {
			A int `json:"a,omitzero"`
		}{}, false, false},
		{recursive{}, false, false},
		{struct{ A ptrMarshaler }{}, true, false},
		{struct{ A text }{}, false, false},
		{struct{ A valueMarshaler }{}, false, true},
		{struct{ A unmarshalOnly }{}, true, true},
		{struct{ A ptrAppender }{}, true, false},
	} {
		typ := reflect.TypeOf(tc.v)
		if _, err := decodePlan(typ); (err == nil) != tc.decode {
			t.Errorf("decode plan of %v: %v, want built %v", typ, err, tc.decode)
		}
		if _, err := encodePlan(typ); (err == nil) != tc.encode {
			t.Errorf("encode plan of %v: %v, want built %v", typ, err, tc.encode)
		}
	}
}

type ptrMarshaler struct{}

func (*ptrMarshaler) MarshalJSON() ([]byte, error) { return []byte(`1`), nil }

type text struct{}

func (text) MarshalText() ([]byte, error) { return nil, nil }
func (*text) UnmarshalText([]byte) error  { return nil }

// valueMarshaler marshals itself, and its kind has no decode plan.
type valueMarshaler chan int

func (valueMarshaler) MarshalJSON() ([]byte, error) { return []byte(`1`), nil }

type unmarshalOnly struct{ N int }

func (*unmarshalOnly) UnmarshalJSON([]byte) error { return nil }

type ptrAppender struct{}

func (*ptrAppender) AppendJSON(b []byte) ([]byte, error) { return b, nil }
