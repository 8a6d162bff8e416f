package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestRequestDeadlineInQueueIs504 is the end-to-end 504 path: the only
// evaluation slot is held, so a fresh request queues at the gate until
// its own RequestTimeout expires — and the response says so with 504,
// not a generic 503.
func TestRequestDeadlineInQueueIs504(t *testing.T) {
	s := newTestServer(t, Config{
		MaxInflight:    1,
		MaxQueue:       4,
		QueueTimeout:   10 * time.Second, // queue patience outlives the request deadline
		RequestTimeout: 30 * time.Millisecond,
	})
	release, status := s.gate.acquire(context.Background())
	if status != 0 {
		t.Fatalf("holding the only slot: status %d", status)
	}
	defer release()

	rec := do(t, s, http.MethodPost, "/v1/optimize",
		`{"workload":"MMM","f":0.91,"design":{"kind":"sym"}}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", rec.Code, rec.Body.String())
	}
	if st := s.gate.stats(); st.RejectedDeadline != 1 {
		t.Errorf("RejectedDeadline = %d, want 1", st.RejectedDeadline)
	}
}

// TestSaturation503CarriesRetryAfter: with the slot held and a short
// queue timeout, a fresh request is told to come back later — and the
// response carries the Retry-After hint the client's backoff floors on.
func TestSaturation503CarriesRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{
		MaxInflight:  1,
		MaxQueue:     4,
		QueueTimeout: 5 * time.Millisecond,
	})
	release, status := s.gate.acquire(context.Background())
	if status != 0 {
		t.Fatalf("holding the only slot: status %d", status)
	}
	defer release()

	rec := do(t, s, http.MethodPost, "/v1/optimize",
		`{"workload":"MMM","f":0.92,"design":{"kind":"sym"}}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q", ra, "1")
	}
}

// TestStaleServedEndToEnd: an entry evicted from the live cache is
// served from the stale tier when revalidation cannot run (gate
// saturated), and the response is labeled X-Heterosim-Cache: stale so
// clients can tell. This is the stale-while-revalidate contract at the
// HTTP layer.
func TestStaleServedEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{
		CacheEntries: 8, // tiny: a burst of distinct requests evicts earlier ones
		MaxInflight:  1,
		MaxQueue:     4,
		QueueTimeout: 5 * time.Millisecond,
	})
	first := `{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`
	rec := do(t, s, http.MethodPost, "/v1/optimize", first)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Heterosim-Cache") != "miss" {
		t.Fatalf("first request = (%d, %q)", rec.Code, rec.Header().Get("X-Heterosim-Cache"))
	}
	fresh := rec.Body.String()

	// Flood with distinct requests until the first one's entry has been
	// evicted into the stale tier: with the gate saturated, replaying it
	// must serve the retained bytes, labeled stale.
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("first entry never left the live tier after 1000 distinct inserts")
		}
		body := fmt.Sprintf(`{"workload":"MMM","f":%g,"design":{"kind":"sym"}}`, 0.0001*float64(i+1))
		if rec := do(t, s, http.MethodPost, "/v1/optimize", body); rec.Code != http.StatusOK {
			t.Fatalf("filler %d = %d (%s)", i, rec.Code, rec.Body.String())
		}

		release, status := s.gate.acquire(context.Background())
		if status != 0 {
			t.Fatalf("holding the only slot: status %d", status)
		}
		rec := do(t, s, http.MethodPost, "/v1/optimize", first)
		release()
		switch rec.Header().Get("X-Heterosim-Cache") {
		case "hit":
			continue // still live; keep evicting
		case "stale":
			if rec.Code != http.StatusOK {
				t.Fatalf("stale serve status = %d", rec.Code)
			}
			if rec.Body.String() != fresh {
				t.Error("stale bytes differ from the original response")
			}
			if st := s.cache.Stats(); st.StaleServed == 0 {
				t.Error("StaleServed counter never moved")
			}
			return
		default:
			t.Fatalf("replay = (%d, %q, %s), want hit or stale",
				rec.Code, rec.Header().Get("X-Heterosim-Cache"), rec.Body.String())
		}
	}
}

// TestBatchDeadlineInQueueIs504: a batch whose items miss arms its one
// deadline at the first miss, so with the only evaluation slot held its
// items answer 504 once RequestTimeout has passed, as a standalone
// request does, instead of queueing for the gate's own patience.
func TestBatchDeadlineInQueueIs504(t *testing.T) {
	s := newTestServer(t, Config{
		MaxInflight:    1,
		MaxQueue:       4,
		QueueTimeout:   10 * time.Second, // queue patience outlives the request deadline
		RequestTimeout: 30 * time.Millisecond,
	})
	release, status := s.gate.acquire(context.Background())
	if status != 0 {
		t.Fatalf("holding the only slot: status %d", status)
	}
	defer release()

	start := time.Now()
	rec := do(t, s, http.MethodPost, "/v1/batch", `{"items":[`+
		`{"op":"optimize","request":{"workload":"MMM","f":0.93,"design":{"kind":"sym"}}},`+
		`{"op":"optimize","request":{"workload":"MMM","f":0.94,"design":{"kind":"sym"}}}]}`)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("batch took %v: its deadline was never armed", elapsed)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch = %d %s", rec.Code, rec.Body)
	}
	for i, it := range resp.Items {
		if it.Status != http.StatusGatewayTimeout {
			t.Errorf("item %d = {%d, %q}, want 504", i, it.Status, it.Error)
		}
	}
}

// TestBatchDeadlineArmsOnce: a batch's deadline is unarmed (the whole
// timeout left) until an item misses, is set by the first arm alone, and
// once passed fails every later lookup with the deadline error; with
// deadlines off nothing is ever armed.
func TestBatchDeadlineArmsOnce(t *testing.T) {
	off := batchDeadline{}
	off.arm()
	if left, err := off.left(); left != 0 || err != nil {
		t.Errorf("deadlines off: left = %v, %v; want 0, nil", left, err)
	}

	const timeout = 40 * time.Millisecond
	d := batchDeadline{timeout: timeout}
	if left, err := d.left(); left != timeout || err != nil {
		t.Errorf("unarmed: left = %v, %v; want %v, nil", left, err, timeout)
	}
	d.arm()
	at := d.at.Load()
	time.Sleep(time.Millisecond)
	d.arm()
	if d.at.Load() != at {
		t.Error("a second arm moved the deadline")
	}
	if left, err := d.left(); left <= 0 || left >= timeout || err != nil {
		t.Errorf("armed: left = %v, %v; want within (0, %v), nil", left, err, timeout)
	}
	time.Sleep(timeout)
	if _, err := d.left(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("passed: err = %v, want %v", err, context.DeadlineExceeded)
	}
}
