package loadgen

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// runSmokeOnce runs one deterministic smoke pass against a fresh
// in-process baseline daemon under the logical clock and returns the
// CSV bytes plus the summary.
func runSmokeOnce(t *testing.T, sc Scenario) ([]byte, Summary) {
	t.Helper()
	baseURL, stop, err := StartInProcess(sc, ServerConfig{Name: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var buf bytes.Buffer
	sum, err := Run(context.Background(), sc, RunConfig{
		BaseURL:    baseURL,
		Clock:      NewLogicalClock(time.Unix(0, 0), time.Millisecond),
		Recorders:  []Recorder{NewCSVRecorder(&buf)},
		ServerName: "baseline",
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// TestDeterministicSmokeCSV is the harness's own regression gate: the
// fixed-seed smoke scenario, run twice against fresh daemons under the
// logical clock, must produce byte-identical CSV output — the request
// stream, cache outcomes, and logical timings are all pure functions of
// the seed.
func TestDeterministicSmokeCSV(t *testing.T) {
	sc, ok := Builtin("smoke")
	if !ok {
		t.Fatal("missing smoke builtin")
	}
	csv1, sum1 := runSmokeOnce(t, sc)
	csv2, sum2 := runSmokeOnce(t, sc)
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("fixed-seed CSV output differs across invocations:\n--- run 1 ---\n%s--- run 2 ---\n%s", csv1, csv2)
	}
	if err := sum1.Check(); err != nil {
		t.Errorf("summary failed its own invariants: %v", err)
	}
	if sum1.Requests != sc.Requests || sum1.OK != sc.Requests {
		t.Errorf("smoke run = %d requests / %d ok, want %d clean successes", sum1.Requests, sum1.OK, sc.Requests)
	}
	if sum1.OK != sum2.OK || sum1.Cache.Hits != sum2.Cache.Hits || sum1.Cache.Misses != sum2.Cache.Misses {
		t.Errorf("summaries disagree across identical runs: %+v vs %+v", sum1, sum2)
	}
	// The logical clock makes even the throughput deterministic.
	if sum1.ThroughputRPS != sum2.ThroughputRPS {
		t.Errorf("logical-clock throughput differs: %v vs %v", sum1.ThroughputRPS, sum2.ThroughputRPS)
	}
}

// TestHitRatioShaping: the key-space shaping converges near the target
// cache-hit ratio once the hot set is warm. Wide tolerance — this is a
// statistical property, not a bit-exact one.
func TestHitRatioShaping(t *testing.T) {
	sc := Scenario{
		Name: "shaping", Seed: 11, Requests: 300,
		Arrival:  ArrivalSpec{Process: "closed", Concurrency: 1},
		Mix:      map[string]float64{"optimize": 1},
		HitRatio: 0.7, KeySpace: 8,
	}
	baseURL, stop, err := StartInProcess(sc, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	sum, err := Run(context.Background(), sc, RunConfig{
		BaseURL: baseURL,
		Clock:   NewLogicalClock(time.Unix(0, 0), time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cache.HitRatio < 0.5 || sum.Cache.HitRatio > 0.85 {
		t.Errorf("realized hit ratio %.3f far from the 0.7 target (hits %d, misses %d)",
			sum.Cache.HitRatio, sum.Cache.Hits, sum.Cache.Misses)
	}
}

// TestOpenLoopShedsUnderPressure: an open-loop burst of cold requests
// against a deliberately tiny admission gate must shed (429 or
// queue-timeout 503) rather than collapse, and the harness must account
// for every request. The logical clock collapses the Poisson gaps, so
// the dispatcher genuinely bursts MaxOutstanding-deep instead of being
// paced by wall-clock timer resolution.
func TestOpenLoopShedsUnderPressure(t *testing.T) {
	sc := Scenario{
		Name: "pressure", Seed: 5, Requests: 60,
		Arrival: ArrivalSpec{Process: "poisson", RateHz: 5000, MaxOutstanding: 32},
		// Expensive cold sensitivity evaluations (~15ms each) hold the
		// single admission slot long enough for later arrivals to pile
		// up at the gate even on a one-core box.
		Mix:      map[string]float64{"sensitivity": 1},
		HitRatio: 0, KeySpace: 1,
		Samples: 20_000,
	}
	baseURL, stop, err := StartInProcess(sc, ServerConfig{
		Name: "tiny", MaxInflight: 1, MaxQueue: 1,
		QueueTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	sum, err := Run(context.Background(), sc, RunConfig{
		BaseURL:    baseURL,
		Clock:      NewLogicalClock(time.Unix(0, 0), time.Millisecond),
		ServerName: "tiny",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests != sc.Requests {
		t.Fatalf("accounted %d requests, want %d", sum.Requests, sc.Requests)
	}
	if sum.Shed == 0 {
		t.Errorf("no shed responses under a 5kHz cold burst against a 1-slot gate: %+v", sum)
	}
	if sum.OK == 0 {
		t.Errorf("no successes at all — the gate should degrade, not collapse: %+v", sum)
	}
	if got := sum.OK + sum.Shed + sum.DeadlineMiss + sum.InjectedFaults + sum.TransportErrors + sum.OtherErrors; got != sum.Requests {
		t.Errorf("outcome accounting %d != requests %d", got, sum.Requests)
	}
	if sum.ShedRate <= 0 {
		t.Errorf("ShedRate = %v, want > 0", sum.ShedRate)
	}
}

// TestGeneratorDeterminism: the generated stream is a pure function of
// (config, seed) — same seed replays, different seed diverges.
func TestGeneratorDeterminism(t *testing.T) {
	mk := func(seed int64) []genRequest {
		sc := Scenario{
			Name: "g", Seed: seed, Requests: 200,
			Arrival:  ArrivalSpec{Process: "poisson", RateHz: 100},
			Mix:      mixAll(),
			HitRatio: 0.5, KeySpace: 16,
			Deadline: DeadlineSpec{Dist: "uniform", Min: Duration(time.Millisecond), Max: Duration(time.Second)},
		}
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		g := newGenerator(&sc)
		var out []genRequest
		for {
			r, ok := g.next()
			if !ok {
				return out
			}
			out = append(out, r)
		}
	}
	a, b := mk(7), mk(7)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("stream lengths %d, %d, want 200", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := mk(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}
