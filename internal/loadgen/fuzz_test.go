package loadgen

import (
	"encoding/json"
	"errors"
	"testing"

	"github.com/calcm/heterosim/internal/server"
)

// FuzzParseScenario holds the scenario parser to the repo's input
// contract: arbitrary bytes must never panic, every rejection must be a
// status-carrying *server.Error in the 4xx range (bad config is the
// client's fault, never a 500), and an accepted config must survive a
// marshal/re-parse round trip — the defaults Validate fills in are part
// of the format, not hidden state.
func FuzzParseScenario(f *testing.F) {
	seeds := []string{
		// The shipped scenarios, as JSON.
		`{"name":"smoke","seed":1,"requests":60,"arrival":{"process":"closed","concurrency":1},"mix":{"optimize":6,"sweep":3,"project":1,"scenario":0.5,"sensitivity":1,"ablation":0.5,"models":0.5},"hitRatio":0.5,"keySpace":8}`,
		`{"name":"burst","seed":2,"requests":400,"arrival":{"process":"poisson","rateHz":2000},"mix":{"optimize":8,"sweep":2},"hitRatio":0.3,"samples":20000}`,
		`{"name":"chaos","requests":300,"arrival":{"process":"closed","concurrency":8},"mix":{"optimize":5},"faults":"seed=7,latency=0.05:5ms,error=0.05","deadline":{"dist":"uniform","min":"5ms","max":"50ms"},"retries":3}`,
		// Shapes the parser must reject without panicking.
		`{"name":"x","requests":1,"arrival":{"process":"closed"},"mix":{"optimize":1},"duration":"-5s"}`,
		`{"name":"x","requests":1,"arrival":{"process":"poisson","rateHz":NaN},"mix":{"optimize":1}}`,
		`{"name":"x","requests":1,"arrival":{"process":"poisson","rateHz":1e999},"mix":{"optimize":1}}`,
		`{"name":"x","requests":1,"arrival":{"process":"closed"},"mix":{"metrics":1}}`,
		`{"name":"x","requests":1,"arrival":{"process":"closed"},"mix":{"optimize":-1}}`,
		`{"name":"x","requests":-1,"arrival":{"process":"closed"},"mix":{"optimize":1}}`,
		`{"name":"a,b","requests":1,"arrival":{"process":"closed"},"mix":{"optimize":1}}`,
		`{"name":"x","requests":1,"arrival":{"process":"closed"},"mix":{"optimize":1},"deadline":{"dist":"pareto"}}`,
		`{"name":"x","requests":1,"arrival":{"process":"closed"},"mix":{"optimize":1},"faults":"error=banana"}`,
		`{"name":"x","requests":1,"arrival":{"process":"closed"},"mix":{"optimize":1},"typo":true}`,
		`{bad`,
		``,
		`null`,
		`[1,2,3]`,
		`"just a string"`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			var ee *server.Error
			if !errors.As(err, &ee) {
				t.Fatalf("rejection %v (input %q) is not an *server.Error", err, data)
			}
			if ee.Status < 400 || ee.Status >= 500 {
				t.Fatalf("rejection of %q carries status %d, want 4xx", data, ee.Status)
			}
			return
		}
		// Accepted: the validated scenario must re-encode and re-parse
		// to itself.
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted config %q failed to re-marshal: %v", data, err)
		}
		sc2, err := ParseScenario(out)
		if err != nil {
			t.Fatalf("re-parse of %s (from %q) failed: %v", out, data, err)
		}
		if sc2.Name != sc.Name || sc2.Seed != sc.Seed || sc2.Requests != sc.Requests ||
			sc2.Arrival != sc.Arrival || sc2.HitRatio != sc.HitRatio ||
			sc2.KeySpace != sc.KeySpace || sc2.Samples != sc.Samples ||
			sc2.Retries != sc.Retries || sc2.Deadline != sc.Deadline {
			t.Fatalf("round trip drifted:\n  first  %+v\n  second %+v", sc, sc2)
		}
	})
}
