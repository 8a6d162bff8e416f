package servecache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testPeers(n int) []string {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return peers
}

// Ownership must be a pure function of (membership, key), independent
// of the order the membership was supplied in.
func TestRingOwnerOrderIndependent(t *testing.T) {
	peers := testPeers(5)
	r1, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]string(nil), peers...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	r2, err := NewRing(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("/v1/optimize\x00{\"f\":%d}", i)
		if got, want := r2.Owner(key), r1.Owner(key); got != want {
			t.Fatalf("key %q: owner %q under shuffled membership, %q under sorted", key, got, want)
		}
	}
}

// Every peer must own a non-trivial share of the key space: with 64
// virtual nodes the split should be within a small factor of uniform.
func TestRingOwnerBalance(t *testing.T) {
	peers := testPeers(3)
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const n = 30_000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, p := range peers {
		share := float64(counts[p]) / n
		if math.Abs(share-1.0/3) > 0.15 {
			t.Errorf("peer %s owns %.1f%% of keys, want ~33%%", p, share*100)
		}
	}
}

func TestRingSinglePeerOwnsEverything(t *testing.T) {
	r, err := NewRing([]string{"http://one:1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := r.Owner(fmt.Sprintf("k%d", i)); got != "http://one:1" {
			t.Fatalf("owner = %q", got)
		}
	}
}

func TestRingRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("NewRing(nil) accepted")
	}
	if _, err := NewRing([]string{"http://a:1", "http://a:1"}); err == nil {
		t.Error("NewRing accepted duplicate peer")
	}
}

func TestParsePeers(t *testing.T) {
	self, list, err := ParsePeers("127.0.0.1:9001", "http://127.0.0.1:9002,127.0.0.1:9001, 127.0.0.1:9000")
	if err != nil {
		t.Fatal(err)
	}
	if self != "http://127.0.0.1:9001" {
		t.Errorf("self = %q", self)
	}
	want := []string{"http://127.0.0.1:9000", "http://127.0.0.1:9001", "http://127.0.0.1:9002"}
	for i := range want {
		if list[i] != want[i] {
			t.Fatalf("list = %v, want %v", list, want)
		}
	}

	if _, _, err := ParsePeers("127.0.0.1:9", "127.0.0.1:10,127.0.0.1:11"); err == nil {
		t.Error("ParsePeers accepted a self outside the membership")
	}
	if _, _, err := ParsePeers("", "a:1"); err == nil {
		t.Error("ParsePeers accepted empty self")
	}
	if _, _, err := ParsePeers("a:1", ""); err == nil {
		t.Error("ParsePeers accepted empty peer list")
	}
}

// clusterPair builds a 2-peer cluster view for the non-owner process:
// keys owned by "other" exercise the peer path.
func clusterPair(t *testing.T, fetch Fetch) (*Cluster, string) {
	t.Helper()
	cache, err := New(256)
	if err != nil {
		t.Fatal(err)
	}
	self, other := "http://127.0.0.1:9000", "http://127.0.0.1:9001"
	cl, err := NewCluster(cache, self, []string{self, other}, fetch)
	if err != nil {
		t.Fatal(err)
	}
	// Find a key the *other* peer owns.
	for i := 0; ; i++ {
		key := fmt.Sprintf("/v1/op\x00{\"i\":%d}", i)
		if cl.Owner(key) == other {
			return cl, key
		}
	}
}

func TestClusterLocalKeyUsesLocalCache(t *testing.T) {
	cache, _ := New(16)
	self := "http://127.0.0.1:9000"
	cl, err := NewCluster(cache, self, []string{self}, func(context.Context, string, string) ([]byte, string, error) {
		t.Fatal("fetch called for a locally owned key")
		return nil, "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	val, out, err := cl.Do(context.Background(), "k", 0, func(context.Context) ([]byte, error) {
		return []byte("v"), nil
	})
	if err != nil || string(val) != "v" || out != Miss {
		t.Fatalf("Do = %q, %v, %v", val, out, err)
	}
	_, out, _ = cl.Do(context.Background(), "k", 0, nil)
	if out != Hit {
		t.Fatalf("second Do outcome = %v, want Hit", out)
	}
}

func TestClusterPeerFetch(t *testing.T) {
	var fetched atomic.Int64
	cl, key := clusterPair(t, func(_ context.Context, owner, k string) ([]byte, string, error) {
		fetched.Add(1)
		return []byte("owner-bytes"), "hit", nil
	})
	val, out, err := cl.Do(context.Background(), key, 0, func(context.Context) ([]byte, error) {
		t.Fatal("local compute despite reachable owner")
		return nil, nil
	})
	if err != nil || string(val) != "owner-bytes" || out != Peer {
		t.Fatalf("Do = %q, %v, %v", val, out, err)
	}
	if fetched.Load() != 1 {
		t.Fatalf("fetches = %d", fetched.Load())
	}
	st := cl.Stats()
	if st.Fetches != 1 || st.Hits != 1 || st.Misses != 0 || st.FetchErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The fetched copy is retained in the stale tier, not the live one.
	if cl.cache.Len() != 0 || cl.cache.StaleLen() != 1 {
		t.Fatalf("live=%d stale=%d, want 0/1", cl.cache.Len(), cl.cache.StaleLen())
	}
}

func TestClusterPeerMissCounted(t *testing.T) {
	cl, key := clusterPair(t, func(context.Context, string, string) ([]byte, string, error) {
		return []byte("b"), "miss", nil
	})
	if _, _, err := cl.Do(context.Background(), key, 0, nil); err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Concurrent identical requests at a non-owner coalesce onto ONE fetch:
// singleflight is preserved cluster-wide.
func TestClusterCoalescesFetches(t *testing.T) {
	var fetches atomic.Int64
	gate := make(chan struct{})
	cl, key := clusterPair(t, func(ctx context.Context, _, _ string) ([]byte, string, error) {
		fetches.Add(1)
		<-gate
		return []byte("b"), "miss", nil
	})
	const n = 8
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, out, err := cl.Do(context.Background(), key, 0, nil)
			if err != nil {
				t.Error(err)
			}
			outcomes[i] = out
		}(i)
	}
	// Release the fetch only once every other caller has registered as
	// a coalesced waiter, so none can arrive after completion and start
	// a second fetch.
	for cl.cache.Stats().Coalesced < n-1 {
	}
	close(gate)
	wg.Wait()
	if fetches.Load() != 1 {
		t.Fatalf("fetches = %d, want 1 (coalesced)", fetches.Load())
	}
	peers, coalesced := 0, 0
	for _, o := range outcomes {
		switch o {
		case Peer:
			peers++
		case Coalesced:
			coalesced++
		default:
			t.Fatalf("unexpected outcome %v", o)
		}
	}
	if peers != 1 || coalesced != n-1 {
		t.Fatalf("peers=%d coalesced=%d", peers, coalesced)
	}
}

// Owner unreachable: the non-owner computes locally, the request is
// never lost, and the local result fills the live tier so the outage
// is absorbed.
func TestClusterFetchFailureFallsBackToLocalCompute(t *testing.T) {
	var computes atomic.Int64
	cl, key := clusterPair(t, func(context.Context, string, string) ([]byte, string, error) {
		return nil, "", errors.New("connection refused")
	})
	fn := func(context.Context) ([]byte, error) {
		computes.Add(1)
		return []byte("local"), nil
	}
	val, out, err := cl.Do(context.Background(), key, 0, fn)
	if err != nil || string(val) != "local" || out != Miss {
		t.Fatalf("Do = %q, %v, %v", val, out, err)
	}
	st := cl.Stats()
	if st.FetchErrors != 1 || st.LocalFallbacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// During the outage the local copy serves as a plain hit.
	_, out, err = cl.Do(context.Background(), key, 0, fn)
	if err != nil || out != Hit {
		t.Fatalf("second Do = %v, %v", out, err)
	}
	if computes.Load() != 1 {
		t.Fatalf("computes = %d", computes.Load())
	}
}

// The non-owner path keeps the cache-level counters honest: a
// successful fetch is not a cache miss (nothing was evaluated here), a
// failed fetch followed by local compute is exactly one, and the
// in-flight gauge returns to zero either way.
func TestClusterCacheCountersOnPeerPath(t *testing.T) {
	healthy := true
	cl, key := clusterPair(t, func(context.Context, string, string) ([]byte, string, error) {
		if healthy {
			return []byte("owner-bytes"), "hit", nil
		}
		return nil, "", errors.New("connection refused")
	})
	fn := func(context.Context) ([]byte, error) { return []byte("local"), nil }
	if _, out, err := cl.Do(context.Background(), key, 0, fn); err != nil || out != Peer {
		t.Fatalf("fetch Do = %v, %v, want Peer", out, err)
	}
	if st := cl.cache.Stats(); st.Misses != 0 || st.Inflight != 0 {
		t.Fatalf("after a peer fetch: misses=%d inflight=%d, want 0/0", st.Misses, st.Inflight)
	}
	healthy = false
	if _, out, err := cl.Do(context.Background(), key, 0, fn); err != nil || out != Miss {
		t.Fatalf("fallback Do = %v, %v, want Miss", out, err)
	}
	if st := cl.cache.Stats(); st.Misses != 1 || st.Inflight != 0 {
		t.Fatalf("after a local fallback: misses=%d inflight=%d, want 1/0", st.Misses, st.Inflight)
	}
}

// TestClusterFallbackLeaderPanicDoesNotPoisonKey is
// TestDoLeaderPanicDoesNotPoisonKey on the non-owner path: the owner is
// unreachable and the local fallback evaluation panics while a second
// caller waits on it. Both get an error, nothing is cached in either
// tier, and the next call evaluates afresh.
func TestClusterFallbackLeaderPanicDoesNotPoisonKey(t *testing.T) {
	cl, key := clusterPair(t, func(context.Context, string, string) ([]byte, string, error) {
		return nil, "", errors.New("connection refused")
	})
	entered, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := cl.Do(context.Background(), key, 0, func(context.Context) ([]byte, error) {
			close(entered)
			<-release
			panic("boom")
		})
		leaderErr <- err
	}()
	<-entered
	waiterErr := make(chan error, 1)
	go func() {
		_, out, err := cl.Do(context.Background(), key, 0, func(context.Context) ([]byte, error) {
			return nil, errors.New("waiter must not evaluate")
		})
		if out != Coalesced {
			err = fmt.Errorf("waiter outcome %v, want coalesced (err %v)", out, err)
		}
		waiterErr <- err
	}()
	for cl.cache.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	for name, ch := range map[string]chan error{"leader": leaderErr, "waiter": waiterErr} {
		if err := <-ch; err == nil || !strings.Contains(err.Error(), "panicked: boom") {
			t.Errorf("%s error = %v, want the recovered panic", name, err)
		}
	}
	if st := cl.cache.Stats(); st.Entries != 0 || st.StaleEntries != 0 || st.Inflight != 0 {
		t.Errorf("stats after panic = %+v, want nothing cached or in flight", st)
	}
	if st := cl.Stats(); st.LocalFallbacks != 0 {
		t.Errorf("a panicked fallback counted as a local fallback: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, out, err := cl.Do(ctx, key, 0, func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || out != Miss || string(v) != "ok" {
		t.Fatalf("Do after panic = (%q, %v, %v), want a fresh miss", v, out, err)
	}
}

// TestClusterPeerFetchPanicDoesNotPoisonKey is
// TestDoLeaderPanicDoesNotPoisonKey with the panic in the peer fetch
// itself, before any local fallback: both callers get an error, nothing
// is stored in either tier, and the next call fetches again.
func TestClusterPeerFetchPanicDoesNotPoisonKey(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var fetches atomic.Int64
	cl, key := clusterPair(t, func(context.Context, string, string) ([]byte, string, error) {
		if fetches.Add(1) == 1 {
			close(entered)
			<-release
			panic("boom")
		}
		return []byte("owner-bytes"), "hit", nil
	})
	fn := func(context.Context) ([]byte, error) {
		return nil, errors.New("a peer fetch panic must not fall back to local evaluation")
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := cl.Do(context.Background(), key, 0, fn)
		leaderErr <- err
	}()
	<-entered
	waiterErr := make(chan error, 1)
	go func() {
		_, out, err := cl.Do(context.Background(), key, 0, fn)
		if out != Coalesced {
			err = fmt.Errorf("waiter outcome %v, want coalesced (err %v)", out, err)
		}
		waiterErr <- err
	}()
	for cl.cache.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	for name, ch := range map[string]chan error{"leader": leaderErr, "waiter": waiterErr} {
		if err := <-ch; err == nil || !strings.Contains(err.Error(), "panicked: boom") {
			t.Errorf("%s error = %v, want the recovered panic", name, err)
		}
	}
	if st := cl.cache.Stats(); st.Entries != 0 || st.StaleEntries != 0 || st.Inflight != 0 {
		t.Errorf("stats after panic = %+v, want nothing cached or in flight", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, out, err := cl.Do(ctx, key, 0, fn)
	if err != nil || out != Peer || string(v) != "owner-bytes" {
		t.Fatalf("Do after panic = (%q, %v, %v), want a fresh peer fetch", v, out, err)
	}
	if n := fetches.Load(); n != 2 {
		t.Errorf("Fetch ran %d times, want 2", n)
	}
}

// Owner unreachable AND local compute failing: previously fetched bytes
// are served stale.
func TestClusterStaleServeWhenOwnerAndComputeFail(t *testing.T) {
	healthy := true
	cl, key := clusterPair(t, func(context.Context, string, string) ([]byte, string, error) {
		if healthy {
			return []byte("owner-bytes"), "hit", nil
		}
		return nil, "", errors.New("blackholed")
	})
	if _, _, err := cl.Do(context.Background(), key, 0, nil); err != nil {
		t.Fatal(err)
	}
	healthy = false
	val, out, err := cl.Do(context.Background(), key, 0, func(context.Context) ([]byte, error) {
		return nil, errors.New("evaluation failed")
	})
	if err != nil || string(val) != "owner-bytes" || out != Stale {
		t.Fatalf("Do = %q, %v, %v", val, out, err)
	}
}

func TestClusterValidation(t *testing.T) {
	cache, _ := New(16)
	fetch := func(context.Context, string, string) ([]byte, string, error) { return nil, "", nil }
	if _, err := NewCluster(nil, "http://a:1", []string{"http://a:1"}, fetch); err == nil {
		t.Error("nil cache accepted")
	}
	if _, err := NewCluster(cache, "http://a:1", []string{"http://a:1"}, nil); err == nil {
		t.Error("nil fetch accepted")
	}
	if _, err := NewCluster(cache, "http://x:1", []string{"http://a:1"}, fetch); err == nil {
		t.Error("self outside membership accepted")
	}
}

func TestPeerOutcomeString(t *testing.T) {
	if Peer.String() != "peer" {
		t.Fatalf("Peer.String() = %q", Peer.String())
	}
}
