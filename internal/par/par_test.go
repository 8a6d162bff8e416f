package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// workerCounts exercises the degenerate, small, and default pool shapes.
func workerCounts() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0), 0}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 257
	for _, w := range workerCounts() {
		var visits [n]atomic.Int32
		err := ForEach(context.Background(), n, w, func(_ context.Context, i int) error {
			visits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range visits {
			if c := visits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, c)
			}
		}
	}
}

func TestMapOrderedAndDeterministic(t *testing.T) {
	const n = 100
	want, err := Map(context.Background(), n, 1, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		got, err := Map(context.Background(), n, w, func(_ context.Context, i int) (int, error) {
			// Vary completion order so ordering cannot come for free.
			if i%7 == 0 {
				time.Sleep(time.Microsecond)
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	out, err := Map(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn must not run for n=0")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Errorf("n=0: out=%v err=%v", out, err)
	}
	out, err = Map(context.Background(), 1, 8, func(_ context.Context, i int) (int, error) {
		return 42, nil
	})
	if err != nil || len(out) != 1 || out[0] != 42 {
		t.Errorf("n=1: out=%v err=%v", out, err)
	}
}

func TestForEachSerialErrorIsFirstInOrder(t *testing.T) {
	var calls int
	err := ForEach(context.Background(), 10, 1, func(_ context.Context, i int) error {
		calls++
		if i >= 3 {
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Errorf("err = %v, want fail at 3", err)
	}
	if calls != 4 {
		t.Errorf("serial ForEach made %d calls after error, want 4", calls)
	}
}

func TestForEachParallelReturnsLowestObservedError(t *testing.T) {
	// Every index fails; whatever interleaving happens, the reported
	// error must be the lowest-indexed failure that actually ran, and
	// since index 0 always runs, that is index 0.
	for _, w := range workerCounts() {
		err := ForEach(context.Background(), 64, w, func(_ context.Context, i int) error {
			return fmt.Errorf("fail at %d", i)
		})
		if err == nil || err.Error() != "fail at 0" {
			t.Errorf("workers=%d: err = %v, want fail at 0", w, err)
		}
	}
}

func TestMapDiscardsResultsOnError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), 8, 4, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if out != nil {
		t.Errorf("out = %v, want nil on error", out)
	}
}

func TestFirstErrorCancelsPromptly(t *testing.T) {
	// One task fails immediately; the rest block until cancellation.
	// The pool must unblock them via the derived context and return well
	// before the 5s safety timeout, without leaking goroutines.
	before := runtime.NumGoroutine()
	start := time.Now()
	err := ForEach(context.Background(), 16, 8, func(ctx context.Context, i int) error {
		if i == 0 {
			return errors.New("early failure")
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("cancellation never arrived")
		}
	})
	if err == nil || err.Error() != "early failure" {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	// Workers exit after wg.Wait, so any surplus goroutines are gone
	// immediately; poll briefly to absorb scheduler noise.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := ForEach(ctx, 10, 4, func(_ context.Context, i int) error {
		called = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("fn ran under a pre-cancelled context")
	}
}

func TestExternalCancellationMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var launched atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 1000, 4, func(ctx context.Context, i int) error {
			if launched.Add(1) == 4 {
				cancel()
			}
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not observe external cancellation")
	}
	if n := launched.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the sweep (ran %d tasks)", n)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want int }{
		{-100, 0}, {-1, 0}, {0, 0}, {1, 1}, {4, 4}, {1 << 20, 1 << 20},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// A normalized count resolves identically to its raw spelling: auto
	// spellings collapse to GOMAXPROCS, positive counts are untouched.
	for _, n := range []int{-7, 0, 3} {
		if Workers(Normalize(n)) != Workers(n) {
			t.Errorf("Workers(Normalize(%d)) != Workers(%d)", n, n)
		}
	}
}

// TestPanicBecomesError: a panic in fn, on the calling goroutine or a
// worker, comes back from ForEach and Map as an error wrapping ErrPanic
// that names the index and the panic value.
func TestPanicBecomesError(t *testing.T) {
	for _, w := range []int{1, 4} {
		err := ForEach(context.Background(), 16, w, func(_ context.Context, i int) error {
			if i == 3 {
				panic("boom")
			}
			return nil
		})
		if !errors.Is(err, ErrPanic) || err.Error() != "par: fn panicked at index 3: boom" {
			t.Errorf("ForEach workers=%d: err = %v, want the recovered panic at index 3", w, err)
		}
		out, err := Map(context.Background(), 16, w, func(_ context.Context, i int) (int, error) {
			if i == 0 {
				var m map[string]int
				m["x"] = 1 // a runtime panic, not a panic(value) call
			}
			return i, nil
		})
		if !errors.Is(err, ErrPanic) || out != nil {
			t.Errorf("Map workers=%d: out = %v, err = %v, want nil and the recovered panic", w, out, err)
		}
	}
}
