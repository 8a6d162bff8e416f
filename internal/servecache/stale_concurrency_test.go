package servecache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errTransient stands in for a failed refresh (deadline, admission
// rejection) in every case below.
var errTransient = errors.New("transient refresh failure")

// TestStaleUnderConcurrentExpiry is the table-driven race suite for the
// stale-while-revalidate tier: hot keys are refreshed (and the refresh
// fails) while churn goroutines force concurrent evictions through the
// live LRU. Run under -race, it holds the purity contract under every
// interleaving: a nil-error response always carries the key's canonical
// bytes — hit, coalesced, or stale, it can never be wrong — and an error
// is only ever the refresh failure or the caller's own context error.
func TestStaleUnderConcurrentExpiry(t *testing.T) {
	value := func(key string) string { return "v:" + key }
	cases := []struct {
		name     string
		entries  int // total live capacity
		shards   int
		hot      int // hot keys being refreshed
		workers  int // goroutines per hot key
		rounds   int // refresh attempts per worker
		churn    int // churn goroutines minting unique cold keys
		failRate int // refresh failure: every Nth call fails (1 = always)
		// wantStale asserts the run must serve stale at least once.
		// Only set where retention survives deterministically — churn
		// floods the bounded stale LRU and can evict every retained
		// copy, which is itself a legal interleaving the other cases
		// exercise.
		wantStale bool
	}{
		// One shard, one slot: every insert evicts, every eviction
		// lands in the stale tier, every failed refresh races a
		// concurrent expiry.
		{name: "single-slot always-failing", entries: 1, shards: 1, hot: 2, workers: 8, rounds: 30, churn: 2, failRate: 1},
		// Default sharding with capacity far below the key population,
		// so eviction pressure is constant across shards.
		{name: "sharded under churn", entries: 8, shards: 4, hot: 6, workers: 4, rounds: 20, churn: 4, failRate: 1},
		// Flapping refresh: successes re-enter the live tier (clearing
		// the stale shadow) while failures race to read it.
		{name: "flapping refresh", entries: 2, shards: 1, hot: 3, workers: 6, rounds: 25, churn: 2, failRate: 2},
		// No churn: only the hot keys themselves compete for slots, so
		// the last-evicted hot key keeps its retained copy for the whole
		// run (failures never insert, so nothing displaces it) and every
		// failed refresh of that key must serve stale.
		{name: "mutual eviction only", entries: 1, shards: 1, hot: 4, workers: 4, rounds: 25, churn: 0, failRate: 1, wantStale: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewSharded(tc.entries, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			// Warm every hot key so the stale tier has something to
			// retain once churn evicts them.
			for i := 0; i < tc.hot; i++ {
				key := fmt.Sprintf("hot-%d", i)
				if _, _, err := c.Do(context.Background(), key, 0, func(context.Context) ([]byte, error) {
					return []byte(value(key)), nil
				}); err != nil {
					t.Fatal(err)
				}
			}

			ctx := context.Background()
			var calls atomic.Int64
			var staleSeen atomic.Int64
			var hotWG, churnWG sync.WaitGroup
			errCh := make(chan error, tc.hot*tc.workers*tc.rounds)

			for i := 0; i < tc.hot; i++ {
				key := fmt.Sprintf("hot-%d", i)
				want := value(key)
				for w := 0; w < tc.workers; w++ {
					hotWG.Add(1)
					go func() {
						defer hotWG.Done()
						for r := 0; r < tc.rounds; r++ {
							v, out, err := c.Do(ctx, key, 0, func(context.Context) ([]byte, error) {
								if n := calls.Add(1); tc.failRate == 1 || n%int64(tc.failRate) == 0 {
									return nil, errTransient
								}
								return []byte(want), nil
							})
							if err != nil {
								// The only legitimate error is the shared
								// refresh failure (no retained copy left).
								if !errors.Is(err, errTransient) {
									errCh <- fmt.Errorf("%s: unexpected error %w", key, err)
									return
								}
								continue
							}
							if string(v) != want {
								errCh <- fmt.Errorf("%s: outcome %v served %q, want %q", key, out, v, want)
								return
							}
							switch out {
							case Hit, Miss, Coalesced:
							case Stale:
								staleSeen.Add(1)
							default:
								errCh <- fmt.Errorf("%s: unknown outcome %v", key, out)
								return
							}
						}
					}()
				}
			}
			// Churn goroutines flood unique cold keys through the same
			// shards, forcing concurrent evictions of the hot entries
			// (live and stale tiers both) while the refreshes run.
			stopChurn := make(chan struct{})
			for g := 0; g < tc.churn; g++ {
				churnWG.Add(1)
				go func(g int) {
					defer churnWG.Done()
					for n := 0; ; n++ {
						select {
						case <-stopChurn:
							return
						default:
						}
						key := fmt.Sprintf("cold-%d-%d", g, n)
						if _, _, err := c.Do(ctx, key, 0, func(context.Context) ([]byte, error) {
							return []byte(value(key)), nil
						}); err != nil {
							errCh <- fmt.Errorf("churn %s: %w", key, err)
							return
						}
					}
				}(g)
			}

			// Hot workers finish their rounds first (churn keeps the
			// eviction pressure on the whole time), then the churn is
			// stopped and drained.
			waitTimeout(t, &hotWG, nil)
			waitTimeout(t, &churnWG, stopChurn)

			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			st := c.Stats()
			if st.Hits < 0 || st.Misses <= 0 {
				t.Errorf("implausible counters: %+v", st)
			}
			if tc.wantStale && staleSeen.Load() == 0 && st.StaleServed == 0 {
				t.Errorf("expected stale serving but none happened (stats %+v)", st)
			}
			if c.StaleLen() > c.Capacity() {
				t.Errorf("stale tier %d exceeds its bound %d", c.StaleLen(), c.Capacity())
			}
		})
	}
}

// waitTimeout optionally closes a stop channel, then waits for the
// group with a watchdog so a deadlock fails the test instead of hanging
// the suite.
func waitTimeout(t *testing.T, wg *sync.WaitGroup, stop chan struct{}) {
	t.Helper()
	if stop != nil {
		close(stop)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers deadlocked")
	}
}

// TestStaleEntryEvictedWhileWaitersBlocked pins the nastiest
// interleaving: waiters coalesce onto a failing in-flight refresh while
// churn evicts the key's stale retention entry out from under them. Each
// waiter must get either the retained bytes (Stale, nil error) or the
// refresh error — never a foreign value, never a hang.
func TestStaleEntryEvictedWhileWaitersBlocked(t *testing.T) {
	c, err := NewSharded(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, "a")
	fill(t, c, "b") // "a" now lives only in the stale tier

	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	results := make(chan error, 16)

	// Leader: holds the refresh in flight until released, then fails.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.Do(context.Background(), "a", 0, func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return nil, errTransient
		})
	}()
	<-started

	// Waiters coalesce onto the leader's in-flight call.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "a", 0, func(context.Context) ([]byte, error) {
				return nil, errTransient
			})
			switch {
			case err == nil && out == Stale && string(v) == "a":
			case err == nil && out == Coalesced && v == nil:
				// Coalesced onto a failed call after the stale entry was
				// evicted: surfaced as the shared result. Do reports the
				// error in that case, so this arm should be unreachable.
				results <- fmt.Errorf("coalesced success with nil value")
			case err != nil && errors.Is(err, errTransient):
			default:
				results <- fmt.Errorf("waiter got (%q, %v, %v)", v, out, err)
			}
		}()
	}

	// Churn: evict the stale copy of "a" while the waiters are blocked
	// (the stale LRU is bounded by the live capacity, so one insert
	// cycle pushes it out).
	fill(t, c, "c")
	fill(t, c, "d")

	close(release)
	wg.Wait()
	close(results)
	for err := range results {
		t.Error(err)
	}
}
