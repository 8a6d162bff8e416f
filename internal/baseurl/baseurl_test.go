package baseurl

import (
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want string
		wantErr  bool
	}{
		{in: "127.0.0.1:8080", want: "http://127.0.0.1:8080"},
		{in: "http://127.0.0.1:8080", want: "http://127.0.0.1:8080"},
		{in: "https://example.com", want: "https://example.com"},
		{in: "https://example.com/", want: "https://example.com"},
		{in: "http://example.com///", want: "http://example.com"},
		{in: "http://example.com/base/", want: "http://example.com/base"},
		{in: "  host:80  ", want: "http://host:80"},
		{in: "localhost", want: "http://localhost"},
		{in: "", wantErr: true},
		{in: "   ", wantErr: true},
		{in: "http://", wantErr: true},             // empty host
		{in: "ftp://example.com", wantErr: true},   // scheme
		{in: "http://h/x?y=1", wantErr: true},      // query
		{in: "http://h/x#frag", wantErr: true},     // fragment
		{in: "http://user:pw@h:80", wantErr: true}, // userinfo
		{in: "http://host:port", wantErr: true},    // non-numeric port
		{in: "http://[::1]:8080", want: "http://[::1]:8080"},
	}
	for _, tc := range cases {
		got, err := Normalize(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Normalize(%q) = %q, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Normalize(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	for _, in := range []string{"127.0.0.1:9", "https://a.b/c/", "host", "http://h:1/p"} {
		once, err := Normalize(in)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", in, err)
		}
		twice, err := Normalize(once)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", once, err)
		}
		if once != twice {
			t.Errorf("not idempotent: %q -> %q -> %q", in, once, twice)
		}
	}
}

func TestNormalizeList(t *testing.T) {
	got, err := NormalizeList("b:1, a:2 ,http://c:3/,")
	if err != nil {
		t.Fatalf("NormalizeList: %v", err)
	}
	want := []string{"http://b:1", "http://a:2", "http://c:3"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("NormalizeList = %v, want %v", got, want)
	}

	if _, err := NormalizeList("a:1,http://a:1"); err == nil {
		t.Error("NormalizeList accepted duplicate spellings of one endpoint")
	}
	if _, err := NormalizeList(" , ,"); err == nil {
		t.Error("NormalizeList accepted an empty list")
	}
	if _, err := NormalizeList("a:1,http://"); err == nil {
		t.Error("NormalizeList accepted an empty host")
	}
}

func TestSorted(t *testing.T) {
	in := []string{"http://c:1", "http://a:1", "http://b:1"}
	got := Sorted(in)
	if got[0] != "http://a:1" || got[1] != "http://b:1" || got[2] != "http://c:1" {
		t.Errorf("Sorted = %v", got)
	}
	if in[0] != "http://c:1" {
		t.Error("Sorted mutated its input")
	}
}
