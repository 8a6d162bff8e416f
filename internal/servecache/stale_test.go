package servecache

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fill inserts key -> key bytes through the miss path.
func fill(t *testing.T, c *Cache, key string) {
	t.Helper()
	_, out, err := c.Do(context.Background(), key, 0, func(context.Context) ([]byte, error) {
		return []byte(key), nil
	})
	if err != nil || out != Miss {
		t.Fatalf("fill %s = (%v, %v), want clean miss", key, out, err)
	}
}

// TestStaleServedAfterEvictionOnError is the stale-while-revalidate
// contract: an entry evicted from the live LRU is retained, and when the
// fresh evaluation fails the retained bytes are served with the Stale
// outcome and no error.
func TestStaleServedAfterEvictionOnError(t *testing.T) {
	c, err := NewSharded(1, 1) // capacity one: the second insert evicts the first
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, "a")
	fill(t, c, "b") // evicts a into the stale tier
	if got := c.StaleLen(); got != 1 {
		t.Fatalf("StaleLen = %d, want 1 retained entry", got)
	}

	boom := errors.New("transient failure")
	v, out, err := c.Do(context.Background(), "a", 0, func(context.Context) ([]byte, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatalf("Do after failed revalidation returned error %v, want stale fallback", err)
	}
	if out != Stale || string(v) != "a" {
		t.Fatalf("Do = (%q, %v), want retained bytes with Stale outcome", v, out)
	}
	if st := c.Stats(); st.StaleServed != 1 {
		t.Errorf("StaleServed = %d, want 1", st.StaleServed)
	}

	// A key with no retained copy still surfaces the evaluation error.
	if _, _, err := c.Do(context.Background(), "never-seen", 0, func(context.Context) ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Errorf("unretained key returned %v, want the evaluation error", err)
	}
}

// TestStaleShadowClearedOnReinsert proves a key that re-enters the live
// tier leaves no stale shadow behind (the live copy always wins, and the
// stale tier cannot grow a duplicate).
func TestStaleShadowClearedOnReinsert(t *testing.T) {
	c, err := NewSharded(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, "a")
	fill(t, c, "b") // a -> stale
	fill(t, c, "a") // a back to live (evicting b), stale shadow cleared
	if got := c.StaleLen(); got != 1 {
		t.Fatalf("StaleLen = %d, want only b retained", got)
	}
	if v, ok := c.Get("a"); !ok || string(v) != "a" {
		t.Fatalf("live a = (%q, %v), want hit", v, ok)
	}
}

// TestStaleTierIsBounded proves retention cannot outgrow the live
// capacity: the stale tier evicts its own LRU.
func TestStaleTierIsBounded(t *testing.T) {
	c, err := NewSharded(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		fill(t, c, k)
	}
	if got, want := c.StaleLen(), 2; got != want {
		t.Errorf("StaleLen = %d, want bounded at %d", got, want)
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

// TestCoalescedWaiterDeadlineFallsBackToStale: a waiter whose context
// expires while an identical evaluation is in flight serves the retained
// copy when one exists, and ctx.Err() when not.
func TestCoalescedWaiterDeadlineFallsBackToStale(t *testing.T) {
	c, err := NewSharded(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, "a")
	fill(t, c, "b") // a -> stale

	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.Do(context.Background(), "a", 0, func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return []byte("fresh"), nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	v, out, err := c.Do(ctx, "a", 0, func(context.Context) ([]byte, error) {
		t.Error("waiter must coalesce, not evaluate")
		return nil, nil
	})
	if err != nil || out != Stale || string(v) != "a" {
		t.Fatalf("expired waiter = (%q, %v, %v), want stale fallback", v, out, err)
	}

	// The same expired wait on a key with no retained copy returns the
	// context error instead of hanging.
	started2 := make(chan struct{})
	go func() {
		c.Do(context.Background(), "c", 0, func(context.Context) ([]byte, error) {
			close(started2)
			<-release
			return []byte("c"), nil
		})
	}()
	<-started2
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if _, _, err := c.Do(ctx2, "c", 0, func(context.Context) ([]byte, error) {
		return nil, nil
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter with no stale copy returned %v, want DeadlineExceeded", err)
	}
}
