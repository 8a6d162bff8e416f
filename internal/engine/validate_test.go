package engine

import (
	"errors"
	"testing"
)

func TestDecodeStrictTrailingData(t *testing.T) {
	type req struct {
		A int `json:"a"`
	}
	for _, body := range []string{
		`{"a":1}`,
		" {\"a\":1} \n\t",
	} {
		var r req
		if err := DecodeStrict([]byte(body), &r); err != nil || r.A != 1 {
			t.Errorf("DecodeStrict(%q) = %v, a=%d; want nil, a=1", body, err, r.A)
		}
	}
	for _, body := range []string{
		`{"a":1}}`,
		`{"a":1}]`,
		`{"a":1}]]]garbage`,
		`{"a":1} x`,
		`{"a":1} {"a":2}`,
		`{"a":1} 5`,
		`{"a":1},`,
		`{"a":1}:`,
		`{"a":1} "s"`,
		`{"a":1}[`,
	} {
		var r req
		err := DecodeStrict([]byte(body), &r)
		var e *Error
		if !errors.As(err, &e) || e.Status != 400 {
			t.Errorf("DecodeStrict(%q) = %v, want a 400 *Error", body, err)
		}
	}
}
