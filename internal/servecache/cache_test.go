package servecache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("negative entries must fail")
	}
	if _, err := NewSharded(8, 0); err == nil {
		t.Error("zero shards must fail")
	}
	c, err := NewSharded(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A sub-shard entry budget holds exactly the budget.
	if got := c.Capacity(); got != 3 {
		t.Errorf("Capacity() = %d, want 3 (the configured budget)", got)
	}
}

// TestCapacityIsTheBudget: every positive budget, below, at, or not a
// multiple of the shard count, is held exactly, and no shard is empty.
func TestCapacityIsTheBudget(t *testing.T) {
	for _, entries := range []int{1, 3, 15, 16, 17, 20, 4096, 4097} {
		c, err := New(entries)
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Capacity != entries || st.Shards != min(entries, DefaultShards) {
			t.Errorf("New(%d): capacity %d over %d shards", entries, st.Capacity, st.Shards)
		}
		for i, s := range c.shards {
			if s.capacity == 0 {
				t.Errorf("New(%d): shard %d has no slot", entries, i)
			}
		}
	}
}

func TestDoHitMissAndGet(t *testing.T) {
	c, err := New(64)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	fn := func(context.Context) ([]byte, error) { calls++; return []byte("payload"), nil }

	v, out, err := c.Do(context.Background(), "k", 0, fn)
	if err != nil || out != Miss || string(v) != "payload" {
		t.Fatalf("first Do = (%q, %v, %v), want miss", v, out, err)
	}
	v, out, err = c.Do(context.Background(), "k", 0, fn)
	if err != nil || out != Hit || string(v) != "payload" {
		t.Fatalf("second Do = (%q, %v, %v), want hit", v, out, err)
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	if v, ok := c.Get("k"); !ok || string(v) != "payload" {
		t.Errorf("Get = (%q, %v), want cached payload", v, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Error("Get of absent key must miss")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits (Do+Get), 2 misses (Do+Get), 1 entry", st)
	}
}

func TestErrorsAreSharedButNotCached(t *testing.T) {
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	calls := 0
	_, out, err := c.Do(context.Background(), "k", 0, func(context.Context) ([]byte, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) || out != Miss {
		t.Fatalf("failed Do = (%v, %v), want miss with boom", out, err)
	}
	// The failure was not cached: the next call re-evaluates and can succeed.
	v, out, err := c.Do(context.Background(), "k", 0, func(context.Context) ([]byte, error) { calls++; return []byte("ok"), nil })
	if err != nil || out != Miss || string(v) != "ok" {
		t.Fatalf("retry Do = (%q, %v, %v), want fresh miss", v, out, err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2", calls)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (only the success cached)", c.Len())
	}
}

// TestDoLeaderPanicDoesNotPoisonKey panics inside the leader's
// evaluation while a second caller waits on it: both must get an error
// (not a panic, not a hang), nothing is cached, and the next call for
// the key evaluates afresh instead of waiting on the dead call.
func TestDoLeaderPanicDoesNotPoisonKey(t *testing.T) {
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", 0, func(context.Context) ([]byte, error) {
			close(entered)
			<-release
			panic("boom")
		})
		leaderErr <- err
	}()
	<-entered
	waiterErr := make(chan error, 1)
	go func() {
		_, out, err := c.Do(context.Background(), "k", 0, func(context.Context) ([]byte, error) {
			return nil, errors.New("waiter must not evaluate")
		})
		if out != Coalesced {
			err = fmt.Errorf("waiter outcome %v, want coalesced (err %v)", out, err)
		}
		waiterErr <- err
	}()
	for c.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	for name, ch := range map[string]chan error{"leader": leaderErr, "waiter": waiterErr} {
		if err := <-ch; err == nil || !strings.Contains(err.Error(), "panicked: boom") {
			t.Errorf("%s error = %v, want the recovered panic", name, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Inflight != 0 {
		t.Errorf("stats after panic = %+v, want nothing cached or in flight", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, out, err := c.Do(ctx, "k", 0, func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || out != Miss || string(v) != "ok" {
		t.Fatalf("Do after panic = (%q, %v, %v), want a fresh miss", v, out, err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// One shard makes the LRU order fully observable.
	c, err := NewSharded(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(k string) {
		if _, _, err := c.Do(context.Background(), k, 0, func(context.Context) ([]byte, error) { return []byte(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	fill("a")
	fill("b")
	c.Get("a") // promote a; b is now least recently used
	fill("c")  // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was promoted and must survive")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c was just inserted and must survive")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestZeroCapacityStillCoalesces(t *testing.T) {
	c, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	var evals atomic.Int64
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", 0, func(context.Context) ([]byte, error) {
				evals.Add(1)
				<-gate
				return []byte("once"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Release the evaluation only once every other waiter has joined it:
	// with storage disabled, a waiter arriving after the release would
	// correctly start a second evaluation.
	for c.Stats().Coalesced < waiters-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := evals.Load(); n != 1 {
		t.Errorf("evaluations = %d, want 1 (coalesced)", n)
	}
	for i, r := range results {
		if !bytes.Equal(r, []byte("once")) {
			t.Errorf("waiter %d got %q", i, r)
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0 (storage disabled)", c.Len())
	}
	// Storage is off, so a later identical request recomputes.
	if _, out, _ := c.Do(context.Background(), "k", 0, func(context.Context) ([]byte, error) { evals.Add(1); return []byte("again"), nil }); out != Miss {
		t.Errorf("post-drain Do outcome = %v, want miss", out)
	}
}

// TestConcurrentIdenticalRequestsCoalesce is the core contract: N
// concurrent identical requests cost exactly one evaluation and every
// caller observes byte-identical bytes. Run with -race.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	c, err := New(128)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	var evals atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, _, err := c.Do(context.Background(), "hot", 0, func(context.Context) ([]byte, error) {
				evals.Add(1)
				return []byte("expensive result"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := evals.Load(); n != 1 {
		t.Errorf("evaluations = %d, want exactly 1", n)
	}
	for i := 1; i < goroutines; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("result %d differs from result 0", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != goroutines-1 {
		t.Errorf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, goroutines-1)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight gauge = %d after drain, want 0", st.Inflight)
	}
}

// TestConcurrentMixedKeys hammers many distinct keys across shards to
// give the race detector surface area on the LRU paths.
func TestConcurrentMixedKeys(t *testing.T) {
	c, err := New(32)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	const rounds = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("key-%d", (g*7+r)%50)
				want := []byte("val-" + key)
				v, _, err := c.Do(context.Background(), key, 0, func(context.Context) ([]byte, error) { return want, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(v, want) {
					t.Errorf("key %s returned %q", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
}

// TestTimeoutArmedOnlyOnMiss checks Do's timeout: the leader's context
// carries it and a coalesced waiter gives up at it, while a hit returns
// without consulting ctx (TestHitAllocs shows it arms no timer).
func TestTimeoutArmedOnlyOnMiss(t *testing.T) {
	c, _ := New(4)
	const timeout = 50 * time.Millisecond
	release := make(chan struct{})
	started := make(chan struct{})
	lead := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", timeout, func(ctx context.Context) ([]byte, error) {
			deadline, ok := ctx.Deadline()
			if !ok || time.Until(deadline) > timeout {
				return nil, fmt.Errorf("leader deadline %v (set %v), want within %v", deadline, ok, timeout)
			}
			close(started)
			<-release
			return []byte("v"), nil
		})
		lead <- err
	}()
	<-started
	start := time.Now()
	if _, out, err := c.Do(context.Background(), "k", 10*time.Millisecond, nil); out != Coalesced || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter = (%v, %v), want Coalesced and its own deadline", out, err)
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Errorf("waiter gave up after %v, before its 10ms timeout", waited)
	}
	close(release)
	if err := <-lead; err != nil {
		t.Fatal(err)
	}
	// A context that is already done shows a hit never looks at it.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if v, out, err := c.Do(done, "k", timeout, nil); out != Hit || err != nil || string(v) != "v" {
		t.Errorf("hit = (%q, %v, %v), want the cached value", v, out, err)
	}
}

// TestHitAllocs pins a cache hit at zero allocations, with a timeout
// too: the timer a miss would arm is never made.
func TestHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c, _ := New(4)
	const key = "/v1/optimize\x00{\"workload\":\"MMM\",\"f\":0.9,\"design\":{\"kind\":\"sym\"}}"
	if _, out, err := c.Do(context.Background(), key, 0, func(context.Context) ([]byte, error) { return []byte("v"), nil }); out != Miss || err != nil {
		t.Fatalf("fill = (%v, %v)", out, err)
	}
	for _, timeout := range []time.Duration{0, time.Second} {
		if got := testing.AllocsPerRun(100, func() {
			if _, out, _ := c.Do(context.Background(), key, timeout, nil); out != Hit {
				t.Fatalf("outcome %v, want a hit", out)
			}
		}); got != 0 {
			t.Errorf("a hit with timeout %v allocates %.0f times, want 0", timeout, got)
		}
	}
}
