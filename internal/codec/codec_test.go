package codec_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/calcm/heterosim/internal/client"
	"github.com/calcm/heterosim/internal/codec"
	"github.com/calcm/heterosim/internal/loadgen"
	"github.com/calcm/heterosim/internal/server"
)

// wireTypes lists the types the two ends pass to the codec, read off
// the client's exported method set, which has one method per served
// operation and stream: requests holds each method's request argument
// (what the server strictly decodes and keys, and the client encodes),
// responses each result, stream row, header and trailer (what the
// server encodes and the client decodes). The loadgen scenario and
// summary, which their CLIs decode strictly, join the requests, and
// the in-band stream error line joins the responses.
func wireTypes() (requests, responses []reflect.Type) {
	seen := make(map[reflect.Type]bool)
	add := func(list *[]reflect.Type, t reflect.Type) {
		for t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		if t.Kind() == reflect.Struct && !seen[t] && t.PkgPath() != "github.com/calcm/heterosim/internal/client" {
			seen[t] = true
			*list = append(*list, t)
		}
	}
	ct := reflect.TypeFor[*client.Client]()
	for i := 0; i < ct.NumMethod(); i++ {
		m := ct.Method(i).Type
		for j := 1; j < m.NumIn(); j++ {
			in := m.In(j)
			if in.Kind() == reflect.Func {
				for k := 0; k < in.NumIn(); k++ {
					add(&responses, in.In(k))
				}
				continue
			}
			add(&requests, in)
		}
		for j := 0; j < m.NumOut(); j++ {
			o := m.Out(j)
			if o.Kind() == reflect.Pointer && o.Elem().PkgPath() == "github.com/calcm/heterosim/internal/client" {
				// A stream result holds the decoded header and trailer.
				for k := 0; k < o.Elem().NumField(); k++ {
					add(&responses, o.Elem().Field(k).Type)
				}
				continue
			}
			add(&responses, o)
		}
	}
	add(&requests, reflect.TypeFor[loadgen.Scenario]())
	add(&requests, reflect.TypeFor[loadgen.Summary]())
	add(&responses, reflect.TypeFor[server.SweepStreamError]())
	return requests, responses
}

// TestPlansCoverWireTypes builds the decode and encode plans of every
// type either end passes to the codec.
func TestPlansCoverWireTypes(t *testing.T) {
	requests, responses := wireTypes()
	for _, want := range []reflect.Type{
		reflect.TypeFor[server.OptimizeRequest](),
		reflect.TypeFor[server.BatchRequest](),
		reflect.TypeFor[server.FrontierRequest](),
		reflect.TypeFor[loadgen.Scenario](),
	} {
		if !contains(requests, want) {
			t.Errorf("wireTypes misses request type %v", want)
		}
	}
	for _, want := range []reflect.Type{
		reflect.TypeFor[server.OptimizeResponse](),
		reflect.TypeFor[server.SweepResponse](),
		reflect.TypeFor[server.CompareResponse](),
		reflect.TypeFor[server.SweepStreamHeader](),
		reflect.TypeFor[server.SweepPointJSON](),
		reflect.TypeFor[server.FrontierRowJSON](),
		reflect.TypeFor[server.FrontierStreamTrailer](),
	} {
		if !contains(responses, want) {
			t.Errorf("wireTypes misses response type %v", want)
		}
	}
	if len(requests) < 11 || len(responses) < 15 {
		t.Errorf("wireTypes found %d request and %d response types, want at least 11 and 15", len(requests), len(responses))
	}
	for _, tt := range append(requests, responses...) {
		if err := codec.Check(tt); err != nil {
			t.Error(err)
		}
	}
}

func contains(list []reflect.Type, t reflect.Type) bool {
	for _, x := range list {
		if x == t {
			return true
		}
	}
	return false
}

// testdataBodies reads every checked-in request and response body: each
// file under the server's and the daemon's testdata whole and line by
// line, each request and response recorded in the pre-refactor fixture,
// and each built-in loadgen scenario.
func testdataBodies(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, dir := range []string{"../server/testdata", "../../cmd/heterosimd/testdata"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range paths {
			if !strings.HasSuffix(p, ".golden") && !strings.HasSuffix(p, ".json") {
				continue
			}
			raw, err := os.ReadFile(p)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, raw)
			if lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n")); len(lines) > 1 {
				out = append(out, lines...)
			}
		}
	}
	var fixture []struct {
		Body     string `json:"body"`
		Response string `json:"response"`
	}
	raw, err := os.ReadFile("../server/testdata/prerefactor.json")
	if err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(raw, &fixture); err != nil {
		tb.Fatal(err)
	}
	for _, e := range fixture {
		out = append(out, []byte(e.Body), []byte(e.Response))
	}
	for _, name := range loadgen.BuiltinNames() {
		sc, _ := loadgen.Builtin(name)
		b, err := json.Marshal(sc)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// strictSeeds cover the strict decoder's own rules and the request
// types' corners.
var strictSeeds = []string{
	// Unknown fields at the top, nested, in a slice element, and under a
	// raw message or a map, where they are allowed.
	`{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"zz":1}`,
	`{"workload":"MMM","f":0.9,"design":{"kind":"sym","zz":1}}`,
	`{"workload":"MMM","pairs":[{"scenario":1},{"scenario":2,"zz":true}]}`,
	`{"items":[{"op":"optimize","request":{"zz":1,"f":0.9}}]}`,
	`{"items":[{"op":"optimize","request":{"workload":"MMM"},"zz":[]}]}`,
	`{"name":"x","requests":5,"mix":{"optimize":1,"zz":2},"arrival":{"process":"closed"}}`,
	`{"name":"x","arrival":{"process":"closed","zz":1}}`,
	// Case-folded keys are known fields.
	`{"WORKLOAD":"MMM","F":0.9,"Design":{"KIND":"sym"}}`,
	`{"workload":"MMM","workload":"FFT-1024","f":0.5,"f":0.9}`,
	// Trailing data.
	`{"workload":"MMM"} `,
	`{"workload":"MMM"}x`,
	`{"workload":"MMM"}{}`,
	`{"workload":"MMM"}]`,
	`{"workload":"MMM"}}`,
	`{"workload":"MMM"} null`,
	`{"workload":"MMM"}` + "\n\t\r ",
	"{\"workload\":\"MMM\"}\x00",
	`null`, ` null `, `{}`, ``, `  `, `[]`, `"x"`, `1`,
	// Durations: the scenario's custom unmarshaler sees each raw value.
	`{"name":"x","duration":"2s","deadline":{"dist":"fixed","fixed":"50ms"}}`,
	`{"name":"x","duration":null}`,
	`{"name":"x","duration":5}`,
	`{"name":"x","duration":"soon"}`,
	`{"name":"x","duration":"1s","duration":"2s"}`,
	`{"name":"x","deadline":{"dist":"uniform","min":"1ms","max":"1\u006ds"}}`,
	// Types, numbers and escapes in request fields.
	`{"workload":"\u004dMM","f":1e-3,"scenario":-0,"workers":1e2}`,
	`{"workload":"MMM","f":"0.9"}`,
	`{"workload":"MMM","scenario":1.5}`,
	`{"workload":"MMM","modelParams":{"theta":0.3},"model":"sqrtm"}`,
	`{"workload":"MMM","modelParams":{"theta":`,
	`{"f":{"lo":0.5,"hi":0.99,"steps":5},"areaScale":{"values":[0.5,1,2]}}`,
	`{"f":{"values":[]},"areaScale":{"values":null}}`,
	`{"pairs":null,"nodes":[],"items":[]}`,
}

// decodeStrictJSON is the decode the server ran before the codec, the
// oracle DecodeStrict must match: a json.Decoder with
// DisallowUnknownFields, then nothing but whitespace.
func decodeStrictJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return codec.ErrTrailingData
	}
	return nil
}

func FuzzDecodeStrictMatchesEncodingJSON(f *testing.F) {
	for _, b := range testdataBodies(f) {
		f.Add(b)
	}
	for _, s := range strictSeeds {
		f.Add([]byte(s))
	}
	requests, _ := wireTypes()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tt := range requests {
			want, got := reflect.New(tt), reflect.New(tt)
			werr := decodeStrictJSON(data, want.Interface())
			gerr := codec.DecodeStrict(data, got.Interface())
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%v on %q: encoding/json error %v, DecodeStrict error %v", tt, truncate(data), werr, gerr)
			}
			if werr != nil && werr.Error() != gerr.Error() {
				t.Fatalf("%v on %q: encoding/json error %q, DecodeStrict error %q", tt, truncate(data), werr, gerr)
			}
			if werr == nil && !reflect.DeepEqual(want.Interface(), got.Interface()) {
				t.Fatalf("%v on %q:\nencoding/json %+v\nDecodeStrict  %+v", tt, truncate(data), want.Elem(), got.Elem())
			}
		}
	})
}

// appendSeeds reach the encoder's string escapes and number forms.
var appendSeeds = []string{
	`{"workload":"<a href=\"x\">&amp;</a>","node":"\u2028\u2029\u007f\u0001\b\f\n\r\t\\/","design":"\ud83d\ude00 caf\u00e9 \ufffd"}`,
	"{\"workload\":\"\xff\xfe\",\"points\":[{\"label\":\"\xc3\"}]}",
	`{"f":1e-7,"speedup":1e21,"energyNorm":-0.0,"r":-0,"n":123456789012345678901234567890}`,
	`{"points":[],"axes":null,"best":null,"nodes":[""],"elasticities":{"b":1,"a":2,"":3,"B":4}}`,
	`{"items":[{"op":"x","request":{ "a" : [1, 2] , "b":"<&>" },"response":  [ ]  }]}`,
	`{"name":"x","duration":"1m30s","mix":{"sweep":2,"optimize":1},"deadline":{"dist":"fixed","fixed":"5ms"}}`,
}

func FuzzAppendMatchesMarshal(f *testing.F) {
	for _, b := range testdataBodies(f) {
		f.Add(b)
	}
	for _, s := range appendSeeds {
		f.Add([]byte(s))
	}
	for _, s := range strictSeeds {
		f.Add([]byte(s))
	}
	requests, responses := wireTypes()
	types := append(requests, responses...)
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(v any) {
			t.Helper()
			want, werr := json.Marshal(v)
			got, gerr := codec.Marshal(v)
			if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("%T from %q:\njson.Marshal %s (%v)\ncodec.Marshal %s (%v)", v, truncate(data), want, werr, got, gerr)
			}
			if key, err := codec.Key("/p", v); (err == nil) != (werr == nil) || werr == nil && key != "/p\x00"+string(want) {
				t.Fatalf("%T from %q: codec.Key %q (%v), want the prefix, a NUL and %s", v, truncate(data), key, err, want)
			}
		}
		for _, tt := range types {
			v := reflect.New(tt)
			if json.Unmarshal(data, v.Interface()) != nil {
				continue
			}
			check(v.Interface())        // addressable fields, through the pointer
			check(v.Elem().Interface()) // the value itself
		}
		check(string(data))
		check(json.RawMessage(data))
	})
}

func truncate(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}

// strictCases are request bodies BenchmarkDecodeStrict times: one with no
// array, and the two request types whose bodies hold one (compare
// pairs, batch items).
var strictCases = []struct {
	name, body string
	typ        reflect.Type
}{
	{"optimize", `{"workload":"FFT-1024","f":0.99,"node":"22nm","design":{"kind":"het","device":"ASIC"}}`, reflect.TypeFor[server.OptimizeRequest]()},
	{"compare", `{"workload":"MMM","f":0.99,"pairs":[{"scenario":0},{"scenario":2},{"scenario":4,"model":"sqrtm","modelParams":{"theta":0.4}}]}`, reflect.TypeFor[server.CompareRequest]()},
	{"batch", `{"items":[{"op":"optimize","request":{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}},{"op":"project","request":{"workload":"FFT-1024","f":0.99}}]}`, reflect.TypeFor[server.BatchRequest]()},
}

// BenchmarkDecodeStrict decodes each request body with DecodeStrict and,
// for comparison, with the strict encoding/json decode it replaced.
func BenchmarkDecodeStrict(b *testing.B) {
	for _, tc := range strictCases {
		body := []byte(tc.body)
		for _, dec := range []struct {
			name string
			fn   func([]byte, any) error
		}{{"codec", codec.DecodeStrict}, {"encoding-json", decodeStrictJSON}} {
			b.Run(tc.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := dec.fn(body, reflect.New(tc.typ).Interface()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMarshal encodes golden responses with Marshal and, for
// comparison, with json.Marshal. The sweep encodes through its own
// AppendJSON.
func BenchmarkMarshal(b *testing.B) {
	for _, tc := range []struct {
		name, path string
		typ        reflect.Type
	}{
		{"optimize", "../../cmd/heterosimd/testdata/optimize_smoke.golden", reflect.TypeFor[server.OptimizeResponse]()},
		{"project", "../server/testdata/project_fft_999.json", reflect.TypeFor[server.ProjectResponse]()},
		{"compare", "../../cmd/heterosimd/testdata/compare_smoke.golden", reflect.TypeFor[server.CompareResponse]()},
		{"sensitivity", "../../cmd/heterosimd/testdata/sensitivity_smoke.golden", reflect.TypeFor[server.SensitivityResponse]()},
	} {
		raw, err := os.ReadFile(tc.path)
		if err != nil {
			b.Fatal(err)
		}
		v := reflect.New(tc.typ).Interface()
		if err := json.Unmarshal(raw, v); err != nil {
			b.Fatal(err)
		}
		for _, enc := range []struct {
			name string
			fn   func(any) ([]byte, error)
		}{{"codec", codec.Marshal}, {"encoding-json", json.Marshal}} {
			b.Run(tc.name+"/"+enc.name, func(b *testing.B) {
				b.SetBytes(int64(len(bytes.TrimSpace(raw))))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := enc.fn(v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestConcurrentCodec decodes and encodes every golden body from several
// goroutines at once, so the plans' scratch slices and the encode
// buffers pass between them; every result must equal a lone call's.
func TestConcurrentCodec(t *testing.T) {
	type job struct {
		body []byte
		typ  reflect.Type
		val  any
		enc  []byte
	}
	requests, responses := wireTypes()
	var jobs []job
	for _, body := range testdataBodies(t) {
		for _, tt := range append(requests, responses...) {
			v := reflect.New(tt).Interface()
			if codec.Decode(body, v) != nil {
				continue
			}
			enc, err := codec.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{body, tt, v, enc})
		}
	}
	if len(jobs) < 20 {
		t.Fatalf("only %d golden bodies decode", len(jobs))
	}
	const goroutines, rounds = 4, 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range jobs {
					j := &jobs[(i+g*7)%len(jobs)]
					v := reflect.New(j.typ).Interface()
					if err := codec.Decode(j.body, v); err != nil {
						t.Errorf("%v: %v", j.typ, err)
						return
					}
					enc, err := codec.Marshal(v)
					if err != nil || !reflect.DeepEqual(v, j.val) || !bytes.Equal(enc, j.enc) {
						t.Errorf("%v: a concurrent decode and encode differ from a lone one's (%v)", j.typ, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
