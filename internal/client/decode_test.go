package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/calcm/heterosim/internal/server"
)

// decodeTypes lists every type a Client method decodes a response into:
// the result of each buffered method, the header, trailer and row types
// of each stream method, and the internal line and error shapes. It is
// derived from the method set, so a new method is covered without an
// edit here.
func decodeTypes() []reflect.Type {
	var out []reflect.Type
	seen := make(map[reflect.Type]bool)
	add := func(t reflect.Type) {
		for t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	ct := reflect.TypeFor[*Client]()
	for i := 0; i < ct.NumMethod(); i++ {
		m := ct.Method(i).Type
		var stream bool
		for j := 1; j < m.NumIn(); j++ {
			if in := m.In(j); in.Kind() == reflect.Func {
				stream = true
				for k := 0; k < in.NumIn(); k++ {
					add(in.In(k))
				}
			}
		}
		for j := 0; j < m.NumOut(); j++ {
			o := m.Out(j)
			if o.Kind() != reflect.Pointer || o.Elem().Kind() != reflect.Struct {
				continue
			}
			if !stream {
				add(o)
				continue
			}
			// A stream result holds the decoded header and trailer.
			for k := 0; k < o.Elem().NumField(); k++ {
				if f := o.Elem().Field(k).Type; f.Kind() == reflect.Struct {
					add(f)
				}
			}
		}
	}
	add(reflect.TypeFor[streamProbe]())
	add(reflect.TypeFor[struct {
		Error string `json:"error"`
	}]()) // apiErrorFrom
	add(reflect.TypeFor[struct {
		Status string `json:"status"`
	}]()) // Healthz
	return out
}

func TestDecodePlansCoverClientTypes(t *testing.T) {
	types := decodeTypes()
	for _, want := range []reflect.Type{
		reflect.TypeFor[server.OptimizeResponse](),
		reflect.TypeFor[server.BatchResponse](),
		reflect.TypeFor[server.Metrics](),
		reflect.TypeFor[server.SweepStreamHeader](),
		reflect.TypeFor[server.SweepPointJSON](),
		reflect.TypeFor[server.FrontierStreamTrailer](),
	} {
		found := false
		for _, tt := range types {
			found = found || tt == want
		}
		if !found {
			t.Errorf("decodeTypes misses %v", want)
		}
	}
	for _, tt := range types {
		if _, err := planFor(tt); err != nil {
			t.Errorf("planFor(%v): %v", tt, err)
		}
	}
	// The builder refuses what it cannot decode exactly.
	for _, v := range []any{
		struct{ A any }{},
		struct{ A [2]int }{},
		struct{ A []byte }{},
		struct{ A map[int]string }{},
		struct {
			A int `json:",string"`
		}{},
		struct{ server.PointJSON }{},
		struct {
			A int
			B int `json:"A"`
		}{},
	} {
		if _, err := planFor(reflect.TypeOf(v)); err == nil {
			t.Errorf("planFor(%T) succeeded, want a plan error", v)
		}
	}
}

// goldenBodies reads the checked-in server response goldens: each file
// whole, each line of a multi-line one, and each response recorded in
// the pre-refactor fixture. Keys name the source.
func goldenBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := make(map[string][]byte)
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
			name := filepath.Base(p)
			out[name] = raw
			if lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n")); len(lines) > 1 {
				for i, l := range lines {
					out[name+"#"+strconv.Itoa(i)] = l
				}
			}
		}
	}
	var fixture []struct {
		Op       string `json:"op"`
		Response string `json:"response"`
	}
	raw, err := os.ReadFile("../server/testdata/prerefactor.json")
	if err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(raw, &fixture); err != nil {
		tb.Fatal(err)
	}
	for i, e := range fixture {
		out["prerefactor/"+e.Op+"/"+strconv.Itoa(i)] = []byte(e.Response)
	}
	return out
}

// handSeeds cover the corners of json.Unmarshal's contract the goldens
// never reach.
var handSeeds = []string{
	// Escapes, surrogates, invalid UTF-8, control characters.
	`{"workload":"F\u0046T\n\"x\"\\\/\b\f\r\t","node":"\u00e9\ud83d\ude00"}`,
	`{"workload":"\ud800 \udc00x \ud83d"}`,
	"{\"workload\":\"\xff\xfe\xc3\",\"node\":\"caf\xc3\xa9\"}",
	"{\"workload\":\"a\x01b\"}",
	"{\"workload\":\"a\x7fb\"}",
	`{"workload":"\x"}`,
	`{"workload":"\u12"}`,
	`{"workload":"\u12g4"}`,
	`{"wor\u006bload":"escaped key"}`,
	"{\"work\xffload\":1}",
	// Case-folded and Unicode-folded keys, exact match beating a fold.
	`{"WORKLOAD":"x","Point":{"SPEEDUP":2,"Kind":"k"},"BUDGETS":{"Area":3}}`,
	`{"point":{"\u212aind":"kelvin","ſpeedup":4}}`,
	"{\"point\":{\"\xe2\x84\xaaind\":\"kelvin\"}}",
	`{"Feasible":1,"feasible":2,"FEASIBLE":3}`,
	// Duplicate keys decode again into the value already there.
	`{"points":[{"f":1,"r":2},{"f":5,"limit":"a"}],"points":[{"f":3}],"points":[{"f":4},{"speedup":9}]}`,
	`{"points":[{"f":1},{"f":2},{"f":3}],"points":[],"points":[{"r":1}]}`,
	`{"best":{"f":1,"r":2},"best":{"speedup":3}}`,
	`{"best":{"f":1},"best":null}`,
	`{"elasticities":{"a":1,"b":2},"elasticities":{"a":3}}`,
	`{"items":[{"response":{"a":1}}],"items":[{"op":"x"}]}`,
	// null everywhere.
	`null`,
	` null `,
	`{"points":null,"best":null,"workload":null,"feasible":null,"valid":null}`,
	`{"items":[{"response":null,"status":null}],"ok":null}`,
	`{"elasticities":null,"monteCarlo":null}`,
	`{"peers":null,"requests":{"a":null}}`,
	`[null]`,
	// Empty containers.
	`{"points":[],"axes":[],"elasticities":{}}`,
	`{}`,
	`[]`,
	// Numbers.
	`{"f":1e999}`,
	`{"f":-1e999}`,
	`{"f":1e-400,"speedup":-0}`,
	`{"feasible":-0,"r":-0}`,
	`{"feasible":-0.0}`,
	`{"feasible":1e2}`,
	`{"feasible":9223372036854775807}`,
	`{"feasible":9223372036854775808}`,
	`{"feasible":-9223372036854775809}`,
	`{"f":01}`,
	`{"f":1.}`,
	`{"f":-}`,
	`{"f":1e}`,
	`{"f":1e+}`,
	`{"f":.5}`,
	`{"f":+1}`,
	`{"f":1E+2,"speedup":2.5e-3,"n":-0.0e0}`,
	`{"f":0x10}`,
	`{"f":Infinity}`,
	`{"f":NaN}`,
	// Wrong JSON types.
	`{"status":"200"}`,
	`{"workload":5}`,
	`{"valid":"true"}`,
	`{"points":{}}`,
	`{"point":[]}`,
	`{"elasticities":[]}`,
	`{"best":5}`,
	`"string"`,
	`5`,
	`true`,
	// Literals.
	`{"valid":true}`,
	`{"valid":tru}`,
	`{"valid":truex}`,
	`{"valid":nul}`,
	`{"valid":False}`,
	// Raw messages keep their exact bytes.
	`{"items":[{"response":  {"a" : [1, 2 ] , "b":"\u0041"}  }]}`,
	`{"items":[{"response":"str"},{"response":123},{"response":true},{"response":[]}]}`,
	`{"items":[{"response":{"a":}}]}`,
	// Unknown keys are skipped, and validated.
	`{"zz":{"a":[1,{"b":null}],"c":"d"},"f":2,"yy":[true,false,-1.5e3,"\u0041"]}`,
	`{"zz":{"a":[1,{"b":nul}]},"f":2}`,
	`{"zz":[1 2],"f":2}`,
	`{"zz":{"a" 1},"f":2}`,
	`{"zz":"\q","f":2}`,
	// Structure and trailing data.
	`{"a" 1}`,
	`{"a":1,}`,
	`{"points":[1,]}`,
	`{,}`,
	`{"a":1}}`,
	`{"a":1}]]]garbage`,
	`{} x`,
	`{}x`,
	" \t\r\n{ \"f\" : 1 } \n",
	"\xef\xbb\xbf{}",
	"\x00",
	``,
	`   `,
	`{`,
	`{"f":`,
	`{"workload":"abc`,
	`{"workload":"abc\`,
	`[`,
	`{"a":1 "b":2}`,
	`{1:2}`,
	// Equal strings in one body share one copy; each must still decode
	// to its own value.
	`{"node":"HET","best":"HET","points":[` + strings.Repeat(`{"label":"HET","kind":"HET","limit":"HET"},`, 40) + `{"kind":"HET"}]}`,
	`{"points":[{"kind":"a\u0062","label":"ab"},{"kind":"ab","label":"a\u0062"}],"elasticities":{"ab":1,"a\u0062":2}}`,
	"{\"points\":[{\"kind\":\"caf\xc3\xa9\",\"label\":\"caf\xc3\xa9\"},{\"kind\":\"caf\xc3\xa9\"}],\"node\":\"caf\xc3\xa9\"}",
	`{"node":"","best":"","points":[{"label":"","kind":"","limit":""},{"kind":""}],"elasticities":{"":1,"":2}}`,
	// More distinct strings than the table holds, each seen twice.
	distinctStrings(100),
}

// distinctStrings is a frontier row whose points carry n distinct
// labels, then the same n again.
func distinctStrings(n int) string {
	var b strings.Builder
	b.WriteString(`{"points":[`)
	for i := 0; i < 2*n; i++ {
		fmt.Fprintf(&b, `{"label":"design %d"},`, i%n)
	}
	b.WriteString(`{}]}`)
	return b.String()
}

// depthSeeds sit at encoding/json's nesting limit: 10000 levels decode
// (unknown keys are skipped), 10001 do not.
func depthSeeds() []string {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	return []string{
		nest(10000),
		nest(10001),
		`{"zz":` + nest(9999) + `}`,
		`{"zz":` + nest(10000) + `}`,
		`{"items":[{"response":` + nest(9998) + `}]}`,
		`{"items":[{"response":` + nest(9999) + `}]}`,
	}
}

func FuzzDecodeMatchesUnmarshal(f *testing.F) {
	for _, body := range goldenBodies(f) {
		f.Add(body)
	}
	for _, s := range handSeeds {
		f.Add([]byte(s))
	}
	for _, s := range depthSeeds() {
		f.Add([]byte(s))
	}
	types := decodeTypes()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tt := range types {
			want, got := reflect.New(tt), reflect.New(tt)
			werr := json.Unmarshal(data, want.Interface())
			gerr := decodeJSON(data, got.Interface())
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%v on %q: json.Unmarshal error %v, decodeJSON error %v", tt, truncate(data), werr, gerr)
			}
			if werr == nil && !reflect.DeepEqual(want.Interface(), got.Interface()) {
				t.Fatalf("%v on %q:\njson.Unmarshal %+v\ndecodeJSON     %+v", tt, truncate(data), want.Elem(), got.Elem())
			}
		}
	})
}

func truncate(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}

// TestDecodedValuesDoNotAliasBuffer decodes responses out of a pooled
// read buffer, then reuses the buffer: the decoded value must not
// change. The batch carries raw messages; the compare repeats its
// labels, kinds and node names, which decode to shared copies.
func TestDecodedValuesDoNotAliasBuffer(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		var got, want server.BatchResponse
		decodeFromReusedBuffer(t, "../server/testdata/batch_shape.golden", &got, &want)
		if len(want.Items) == 0 || len(want.Items[0].Response) == 0 {
			t.Fatal("golden batch has no raw item responses")
		}
	})
	t.Run("compare", func(t *testing.T) {
		var got, want server.CompareResponse
		decodeFromReusedBuffer(t, "../../cmd/heterosimd/testdata/compare_smoke.golden", &got, &want)
		if len(got.Nodes) == 0 || len(got.Pairs) == 0 || len(got.Pairs[0].Rows) == 0 {
			t.Fatal("golden compare has no rows")
		}
		if node, row := got.Nodes[0], got.Pairs[0].Rows[0].Node; node != row || unsafe.StringData(node) != unsafe.StringData(row) {
			t.Fatalf("nodes[0] %q and the first row's node %q do not share one copy", node, row)
		}
	})
}

// decodeFromReusedBuffer decodes the file at path into got through the
// client's pooled read buffer, overwrites that buffer the way the next
// call would, and checks got still equals json.Unmarshal's want.
func decodeFromReusedBuffer[T any](t *testing.T, path string, got, want *T) {
	t.Helper()
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, want); err != nil {
		t.Fatal(err)
	}
	c := &Client{maxBody: maxResponseBytes}
	res := &http.Response{ContentLength: int64(len(body)), Body: io.NopCloser(bytes.NewReader(body))}
	buf, err := c.readBody(res, "/v1/test")
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeJSON(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for i := range b {
		b[i] = 'x'
	}
	buf.Reset()
	buf.Write(bytes.Repeat([]byte{'y'}, len(body)))
	buf.free()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded value changed after its buffer was reused:\n got %+v\nwant %+v", got, want)
	}
}

// TestConcurrentCallsDecodeIndependently runs calls of several response
// sizes from several goroutines at once, so pooled read buffers pass
// between them; every decoded value must equal the one a lone call got.
func TestConcurrentCallsDecodeIndependently(t *testing.T) {
	c := newTestClient(t, realServer(t).URL, nil)
	ctx := context.Background()
	calls := []func() (any, error){
		func() (any, error) {
			return c.Optimize(ctx, server.OptimizeRequest{Workload: "MMM", F: 0.9, Design: server.DesignSpec{Kind: "sym"}})
		},
		func() (any, error) { return c.Sweep(ctx, sweepReq()) },
		func() (any, error) { return c.Project(ctx, server.ProjectRequest{Workload: "FFT-1024", F: 0.99}) },
		func() (any, error) {
			return c.Compare(ctx, server.CompareRequest{Workload: "MMM", F: 0.99, Pairs: []server.ComparePair{{Scenario: 0}, {Scenario: 2}}})
		},
	}
	want := make([]any, len(calls))
	for i, call := range calls {
		v, err := call()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		want[i] = v
	}
	const goroutines, rounds = 4, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(calls)
				got, err := calls[i]()
				if err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d call %d: decoded value differs from a lone call's", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// decodeCases are the golden response bodies BenchmarkDecode times and
// TestDecodeAllocs pins, one per response shape.
var decodeCases = []struct {
	name, body string
	typ        reflect.Type
}{
	{"optimize", "prerefactor/optimize/0", reflect.TypeFor[server.OptimizeResponse]()},
	{"sweep", "prerefactor/sweep/3", reflect.TypeFor[server.SweepResponse]()},
	{"project", "project_fft_999.json", reflect.TypeFor[server.ProjectResponse]()},
	{"scenario", "prerefactor/scenario/7", reflect.TypeFor[server.ScenarioResponse]()},
	{"compare", "compare_smoke.golden", reflect.TypeFor[server.CompareResponse]()},
	{"sensitivity", "sensitivity_smoke.golden", reflect.TypeFor[server.SensitivityResponse]()},
	{"batch", "batch_shape.golden", reflect.TypeFor[server.BatchResponse]()},
	{"frontier-row", "frontier_stream.golden#1", reflect.TypeFor[server.FrontierRowJSON]()},
}

// TestDecodeAllocs pins the allocations of one decodeJSON call, the
// target's included, on each golden body. Equal strings in a body share
// one copy in one arena, numbers convert without a string copy, and
// each non-empty slice is allocated once, so what is left is about one
// allocation per slice and map, one or two for the arena, and the raw
// messages' copies.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	pins := map[string]float64{
		"optimize": 2, "sweep": 9, "project": 10, "scenario": 17, "compare": 30,
		"sensitivity": 6, "batch": 12, "frontier-row": 4,
	}
	bodies := goldenBodies(t)
	for _, tc := range decodeCases {
		pin, ok := pins[tc.name]
		if !ok {
			t.Fatalf("no allocation pin for %s", tc.name)
		}
		body := bodies[tc.body]
		got := testing.AllocsPerRun(100, func() {
			if err := decodeJSON(body, reflect.New(tc.typ).Interface()); err != nil {
				t.Fatal(err)
			}
		})
		if got > pin {
			t.Errorf("decoding %s allocates %.0f times, want <= %.0f", tc.name, got, pin)
		}
	}
}

// TestDecodedSlicesAppendIndependently appends to every slice decoded
// from a body, into its spare capacity when it has any, and checks that
// no decoded value changes: no two slices decoded from one body share a
// backing array.
func TestDecodedSlicesAppendIndependently(t *testing.T) {
	bodies := goldenBodies(t)
	slices := 0
	for _, tc := range decodeCases {
		body := bodies[tc.body]
		got, want := reflect.New(tc.typ), reflect.New(tc.typ)
		if err := decodeJSON(body, got.Interface()); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, want.Interface()); err != nil {
			t.Fatal(err)
		}
		eachSlice(got.Elem(), func(s reflect.Value) {
			slices++
			reflect.Append(s, poison(s.Type().Elem()))
		})
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("%s: appending to one of its slices changed another value", tc.name)
		}
	}
	if slices < 50 {
		t.Fatalf("the golden bodies decode %d slices, want at least 50", slices)
	}
}

// eachSlice calls fn on every non-nil slice reachable from v through
// exported fields, pointers, map values and slice elements.
func eachSlice(v reflect.Value, fn func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			eachSlice(v.Elem(), fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				eachSlice(v.Field(i), fn)
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			eachSlice(it.Value(), fn)
		}
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		fn(v)
		for i := 0; i < v.Len(); i++ {
			eachSlice(v.Index(i), fn)
		}
	}
}

// poison returns a value of type t that equals no decoded value: its
// floats are NaN, and its other scalars are set to values no response
// holds.
func poison(t reflect.Type) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				v.Field(i).Set(poison(t.Field(i).Type))
			}
		}
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-99)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(99)
	case reflect.String:
		v.SetString("poison")
	case reflect.Bool:
		v.SetBool(true)
	}
	return v
}

// BenchmarkDecode decodes each golden response body with decodeJSON
// and, for comparison, with json.Unmarshal.
func BenchmarkDecode(b *testing.B) {
	bodies := goldenBodies(b)
	for _, tc := range decodeCases {
		body, ok := bodies[tc.body]
		if !ok {
			b.Fatalf("no golden body %q", tc.body)
		}
		for _, dec := range []struct {
			name string
			fn   func([]byte, any) error
		}{{"decodeJSON", decodeJSON}, {"Unmarshal", json.Unmarshal}} {
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

// FuzzNumberMatchesStrconv checks the number conversion done in the
// scan against strconv: for every literal number accepts, decoding it
// into each numeric field gives strconv's value bit for bit, and fails
// exactly when strconv fails.
func FuzzNumberMatchesStrconv(f *testing.F) {
	for _, lit := range []string{
		"0", "-0", "-0.0", "0e5", "0.000", "1", "-1", "127", "128", "-128", "-129", "255", "256",
		"9007199254740992", "9007199254740993", "-9007199254740993",
		"1e22", "1e23", "1e-22", "1e-23", "123456e17", "1.5e-30",
		"123456789012345678", "-123456789012345678",
		"1234567890123456789", "12345678901234567890",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808",
		"18446744073709551615", "18446744073709551616",
		"2.2250738585072011e-308", "4.9406564584124654e-324", "1.7976931348623157e308",
		"0.15894664117636143", "26.853508613850938", "1e999", "-1e-999",
		// The edges of the exact 19-digit, |exp| <= 19 path, and past them.
		"18446744073709551615e-19", "9999999999999999999e19", "1e19", "1e-19",
		"1e20", "1e-20", "9999999999999999999e20", "9999999999999999999e-20", "4.5e-20",
		"-0.0000000000000000000",
		// Halfway cases of 17 to 19 digits, which round to even.
		"9007199254740993e-3", "9007199254740993e3", "9007199254740995e-19",
		"18014398509481986e-2", "1801439850948198.6e19", "9007199254740993000",
		"900719925474099300e-5",
	} {
		f.Add(lit)
	}
	f.Fuzz(func(t *testing.T, lit string) {
		d := decoder{data: []byte(lit)}
		if _, err := d.number(); err != nil || d.off != len(lit) {
			t.Skip()
		}
		check := func(field string, got, want uint64, gerr, werr error) {
			t.Helper()
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s from %q: decodeJSON error %v, strconv error %v", field, lit, gerr, werr)
			}
			if werr == nil && got != want {
				t.Fatalf("%s from %q: decodeJSON %#x, strconv %#x", field, lit, got, want)
			}
		}
		g64, gerr := decodeField[float64](lit)
		w64, werr := strconv.ParseFloat(lit, 64)
		check("float64", math.Float64bits(g64), math.Float64bits(w64), gerr, werr)
		g32, gerr := decodeField[float32](lit)
		w32, werr := strconv.ParseFloat(lit, 32)
		check("float32", uint64(math.Float32bits(g32)), uint64(math.Float32bits(float32(w32))), gerr, werr)
		gi, gerr := decodeField[int](lit)
		wi, werr := strconv.ParseInt(lit, 10, 0)
		check("int", uint64(gi), uint64(wi), gerr, werr)
		gi8, gerr := decodeField[int8](lit)
		wi8, werr := strconv.ParseInt(lit, 10, 8)
		check("int8", uint64(gi8), uint64(wi8), gerr, werr)
		gu, gerr := decodeField[uint](lit)
		wu, werr := strconv.ParseUint(lit, 10, 0)
		check("uint", uint64(gu), wu, gerr, werr)
		gu8, gerr := decodeField[uint8](lit)
		wu8, werr := strconv.ParseUint(lit, 10, 8)
		check("uint8", uint64(gu8), wu8, gerr, werr)
	})
}

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

// decodeField decodes the number literal lit into a field of type T.
func decodeField[T any](lit string) (T, error) {
	var v struct{ V T }
	err := decodeJSON([]byte(`{"V":`+lit+`}`), &v)
	return v.V, err
}
