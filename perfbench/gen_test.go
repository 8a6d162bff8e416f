package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// stream renders the first n ops of a workload's stream as the JSON
// bodies the server would receive.
func stream(t *testing.T, workload string, seed uint64, n int64) []string {
	t.Helper()
	set := hotSet(seed)
	out := make([]string, 0, n)
	for i := int64(0); i < n; i++ {
		var op genOp
		switch workload {
		case "hot-hit":
			op = hotOp(set, seed, i)
		case "cold-mix":
			op = coldOp(seed, i)
		}
		b, err := json.Marshal(op.req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, op.kind.String()+" "+string(b))
	}
	return out
}

func TestStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range []string{"hot-hit", "cold-mix"} {
		a, b := stream(t, w, 7, 500), stream(t, w, 7, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations with seed 7 differ", w)
		}
		c := stream(t, w, 8, 500)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same > len(a)/4 {
			t.Errorf("%s: seeds 7 and 8 agree on %d of %d ops", w, same, len(a))
		}
	}
}

func TestMixIsExactPerBlock(t *testing.T) {
	for _, mix := range []*[numKinds]int{&hotHitMix, &coldMixMix} {
		for seed := uint64(1); seed <= 3; seed++ {
			for block := int64(0); block < 50; block++ {
				var got [numKinds]int
				for j := int64(0); j < mixBlock; j++ {
					got[kindAt(mix, tagCold, seed, block*mixBlock+j)]++
				}
				if got != *mix {
					t.Fatalf("seed %d block %d: mix %v, want %v", seed, block, got, *mix)
				}
			}
		}
	}
}

func TestColdKeysAreUnique(t *testing.T) {
	seen := make(map[float64]int64)
	for _, base := range []int64{0, prefillOffset} {
		for i := base; i < base+50000; i++ {
			f := uniqueF(3, i)
			if j, ok := seen[f]; ok {
				t.Fatalf("ops %d and %d share f = %v", j, i, f)
			}
			seen[f] = i
		}
	}
}

func TestHotSetHasDistinctKeys(t *testing.T) {
	seen := make(map[string]bool)
	for _, op := range hotSet(5) {
		b, err := json.Marshal(op.req)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("duplicate hot key %s", b)
		}
		seen[string(b)] = true
	}
}

// TestGeneratedRequestsSucceed sends a stretch of every stream through
// an in-process server and checks each answer, so a vocabulary change
// that makes some request fail shows here rather than as a failed
// benchmark run.
func TestGeneratedRequestsSucceed(t *testing.T) {
	h, err := setupHotHit(2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	c := &coldMix{httpRig: h.(*hotHit).httpRig, seed: 2, workers: 2}
	ctx := context.WithValue(context.Background(), stateKey{}, &opState{})
	for i := int64(0); i < 400; i++ {
		if !c.op(ctx, i) {
			t.Fatalf("cold op %d failed", i)
		}
		if ok, _ := c.keep(ctx, i); !ok {
			t.Fatalf("cold op %d failed its check", i)
		}
	}
	if n := c.drain(ctx, 2); n != 0 {
		t.Fatalf("%d cold ops failed their checks", n)
	}
	if c.sampled.Load() == 0 {
		t.Fatal("no op was checked against the library")
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found: ", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
}

// fixedTransport answers every request with the same small JSON body.
type fixedTransport struct{}

func (fixedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(strings.NewReader(`{"ok":true}`))}, nil
}

// TestSlowDecodeShowsInClientSelf reads a response as internal/client
// does — to the end, then decode, then close — with a slow decode. The
// decode must count in client.self_us, not in net.loopback_us.
func TestSlowDecodeShowsInClientSelf(t *testing.T) {
	const decode = 20 * time.Millisecond
	r := &httpRig{tr: newTracer()}
	r.setTrace(true)
	ctx := context.WithValue(context.Background(), stateKey{}, &opState{})
	start := r.tr.now()
	req := httptest.NewRequest(http.MethodPost, "http://bench/", nil).WithContext(ctx)
	res, err := (&captureTransport{base: fixedTransport{}, tr: r.tr}).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(res.Body); err != nil {
		t.Fatal(err)
	}
	time.Sleep(decode)
	if err := res.Body.Close(); err != nil {
		t.Fatal(err)
	}
	r.tr.add(span{name: spanCall, start: start, end: r.tr.now()})
	m := map[string]float64{}
	r.layers(m, &phase{ops: 1})
	if m["client.self_us"] < us(decode) {
		t.Errorf("client.self_us = %.0f, want at least the %v decode", m["client.self_us"], decode)
	}
	if m["net.loopback_us"] >= us(decode) {
		t.Errorf("net.loopback_us = %.0f includes the %v decode", m["net.loopback_us"], decode)
	}
	if n := r.tr.totals()[spanRoundTrip].n; n != 1 {
		t.Errorf("%d round-trip spans, want 1", n)
	}
}
