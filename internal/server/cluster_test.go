package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/servecache"
)

// TestClusterNonOwnerRetainsExactBytes runs a two-member cluster and
// checks that the bytes a non-owner fetched from a key's owner, which
// it retains in its stale tier, are exactly as long as the response:
// byte-identical to what it served, with no spare capacity.
func TestClusterNonOwnerRetainsExactBytes(t *testing.T) {
	tss := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + tss[i].Listener.Addr().String()
	}
	members := make([]*Server, 2)
	for i, ts := range tss {
		members[i] = newTestServer(t, Config{Peers: urls, PeerSelf: urls[i]})
		ts.Config.Handler = members[i].Handler()
		ts.Start()
		t.Cleanup(ts.Close)
	}
	a := members[0]
	for i := 0; i < 32; i++ {
		body := fmt.Sprintf(`{"workload":"FFT-1024","design":{"kind":"het","device":"GTX480"},
			"f":{"lo":0.5,"hi":0.999,"steps":4},"bandwidthScale":{"lo":0.25,"hi":%g,"steps":4}}`, 4+0.137*float64(i))
		key, _, err := opSweep.Prepare([]byte(body), engine.Env{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Cluster().IsLocal(key) {
			continue
		}
		rec := do(t, a, http.MethodPost, "/v1/sweep", body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Heterosim-Cache") != "peer" {
			t.Fatalf("non-owner answered (%d, %q)", rec.Code, rec.Header().Get("X-Heterosim-Cache"))
		}
		// A failing evaluation makes the cache fall back to the bytes
		// the peer fetch retained.
		kept, outcome, err := a.cache.Do(context.Background(), key, func(context.Context) ([]byte, error) {
			return nil, errors.New("evaluation refused")
		})
		if err != nil || outcome != servecache.Stale {
			t.Fatalf("retained lookup = (%v, %v)", outcome, err)
		}
		if !bytes.Equal(kept, rec.Body.Bytes()) {
			t.Fatal("retained bytes differ from the served response")
		}
		if cap(kept) != len(kept) {
			t.Fatalf("retained entry: cap %d, len %d", cap(kept), len(kept))
		}
		// A body without Content-Length is copied to exact size too.
		payload := strings.Repeat("x", 3000)
		got, err := readPeerBody(&http.Response{ContentLength: -1, Body: io.NopCloser(strings.NewReader(payload))})
		if err != nil || string(got) != payload || cap(got) != len(got) {
			t.Fatalf("unknown length: len %d, cap %d, err %v", len(got), cap(got), err)
		}
		return
	}
	t.Fatal("no key among 32 is owned by the other member")
}
