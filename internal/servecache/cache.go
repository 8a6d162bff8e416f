// Package servecache is the serving layer's result cache: a sharded LRU
// keyed by a canonical hash of the request, with singleflight-style
// coalescing so N concurrent identical requests cost one evaluation.
//
// The model layer is pure — a response is a function of the request — so
// the cache stores final marshaled response bytes and every hit is
// byte-identical to the evaluation that produced it. Shards keep lock
// contention off the hot path (the shard index is an FNV-1a hash of the
// key), and per-shard LRU lists bound memory to a configurable entry
// budget. Hit/miss/eviction/coalesced/inflight counters feed /metrics.
//
// Purity also powers the stale-while-revalidate fallback: an entry
// evicted from the live LRU is retained in an equally bounded stale LRU,
// and when a fresh evaluation fails transiently (deadline, admission
// rejection, cancellation) the retained bytes are served instead — they
// can never be wrong, only previously computed. Callers see the
// degradation via the Stale outcome.
package servecache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/calcm/heterosim/internal/telemetry"
)

// Outcome classifies how Do satisfied a request.
type Outcome int

const (
	// Hit means the response was already cached.
	Hit Outcome = iota
	// Miss means this call ran the evaluation and (on success) filled
	// the cache.
	Miss
	// Coalesced means an identical evaluation was already in flight and
	// this call waited for its result instead of recomputing.
	Coalesced
	// Stale means the fresh evaluation failed (or the caller's deadline
	// expired waiting for it) and a previously computed response was
	// served from the stale retention tier instead.
	Stale
	// Peer means another process owns this key in the cluster's
	// consistent-hash ring and the response was fetched from it
	// (see Cluster).
	Peer
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	case Stale:
		return "stale"
	case Peer:
		return "peer"
	default:
		return "unknown"
	}
}

// DefaultShards is the shard count used by New. Sixteen keeps lock
// contention negligible at the worker counts the server admits while
// costing a few hundred bytes of fixed overhead.
const DefaultShards = 16

// call is one in-flight evaluation that later arrivals coalesce onto.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// shard is one lock domain: an LRU over its slice of the key space, the
// in-flight table for coalescing, and the stale retention LRU that holds
// entries evicted from the live tier for fallback serving.
type shard struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*call

	stale      map[string]*list.Element
	staleOrder *list.List // front = most recently retained
}

// lruEntry is the list payload.
type lruEntry struct {
	key string
	val []byte
}

// Cache is a sharded LRU with request coalescing. The zero value is not
// usable; construct with New or NewSharded.
type Cache struct {
	shards []*shard

	hits        atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	evictions   atomic.Int64
	staleServed atomic.Int64
	inflight    atomic.Int64 // current gauge, not cumulative
}

// New builds a cache holding at most entries responses across
// DefaultShards shards. entries == 0 disables storage but keeps
// coalescing: concurrent identical requests still collapse to one
// evaluation, sequential ones recompute.
func New(entries int) (*Cache, error) {
	return NewSharded(entries, DefaultShards)
}

// NewSharded is New with an explicit shard count. A budget smaller
// than the shard count uses one shard per entry, and the remainder of
// an uneven budget goes one slot each to the first shards, so Capacity
// is exactly entries.
func NewSharded(entries, shards int) (*Cache, error) {
	if entries < 0 {
		return nil, errors.New("servecache: entries must be >= 0")
	}
	if shards < 1 {
		return nil, errors.New("servecache: shards must be >= 1")
	}
	if entries > 0 && entries < shards {
		shards = entries
	}
	c := &Cache{shards: make([]*shard, shards)}
	for i := range c.shards {
		perShard := entries / shards
		if i < entries%shards {
			perShard++
		}
		c.shards[i] = &shard{
			capacity:   perShard,
			entries:    make(map[string]*list.Element),
			order:      list.New(),
			inflight:   make(map[string]*call),
			stale:      make(map[string]*list.Element),
			staleOrder: list.New(),
		}
	}
	return c, nil
}

// shardFor hashes the key (FNV-1a 64) onto a shard.
func (c *Cache) shardFor(key string) *shard {
	h := fnv.New64a()
	h.Write([]byte(key))
	return c.shards[h.Sum64()%uint64(len(c.shards))]
}

// Get returns the cached response for key, if present, promoting it to
// most-recently-used. The returned bytes are shared: callers must treat
// them as immutable.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*lruEntry).val, true
	}
	c.misses.Add(1)
	return nil, false
}

// Do returns the response for key, computing it with fn at most once per
// cache generation: a cached response is returned immediately (Hit); if
// an identical evaluation is already in flight the call waits for it and
// shares its result (Coalesced); otherwise this call runs fn and, on
// success, fills the cache (Miss). Errors are shared with coalesced
// waiters but never cached, so a failed evaluation can be retried; a
// panic in fn comes back the same way, as an error.
//
// ctx bounds this caller's participation: fn receives it (so evaluation
// work can observe the request deadline), and a coalesced waiter whose
// ctx expires stops waiting and returns ctx.Err() instead of hanging on
// someone else's evaluation. A positive timeout adds a deadline to ctx
// when the lookup misses, bounding the wait or the lead from that
// moment; a hit arms no timer. When fn fails — or the wait is
// abandoned — and a previously computed response survives in the stale
// retention tier, those bytes are served with the Stale outcome and a
// nil error: the model is pure, so retained bytes are correct, merely
// not fresh.
//
// The returned bytes are shared across callers: treat them as immutable.
func (c *Cache) Do(ctx context.Context, key string, timeout time.Duration, fn func(ctx context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	return c.do(ctx, key, timeout, func(ctx context.Context) ([]byte, Outcome, error) {
		return c.evaluate(ctx, fn)
	})
}

// evaluate is the leader's local evaluation: one cache miss.
func (c *Cache) evaluate(ctx context.Context, fn func(ctx context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	c.misses.Add(1)
	val, err := fn(ctx)
	return val, Miss, err
}

// do is the one lookup protocol behind Cache.Do and Cluster.Do: a live
// hit, else a coalesced wait on the key's in-flight call, else this call
// leads by running step. A successful result is stored by its outcome:
// Peer bytes (another process holds the live copy) go to the stale tier,
// anything evaluated here to the live tier. A failed lead or an
// abandoned wait falls back to the stale tier when it holds the key.
// A panic in step (evaluation, peer fetch or fallback alike) fails the
// lead like any other error. A positive timeout bounds the wait or the
// lead, and is armed only once the live tier has missed.
func (c *Cache) do(ctx context.Context, key string, timeout time.Duration, step func(ctx context.Context) ([]byte, Outcome, error)) ([]byte, Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The "cache" stage records time spent inside the cache machinery:
	// the lookup on every path, plus the coalesced wait for another
	// caller's evaluation. The leader's step is excluded — its cost
	// belongs to the peer/gate/evaluate stages.
	span := telemetry.StartSpan(ctx, "cache")
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		val := el.Value.(*lruEntry).val
		s.mu.Unlock()
		c.hits.Add(1)
		span.End()
		return val, Hit, nil
	}
	if cl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		c.coalesced.Add(1)
		defer span.End()
		ctx, cancel := within(ctx, timeout)
		defer cancel()
		select {
		case <-cl.done:
			return c.orStale(s, key, cl.val, Coalesced, cl.err)
		case <-ctx.Done():
			return c.orStale(s, key, nil, Coalesced, ctx.Err())
		}
	}
	cl := &call{done: make(chan struct{})}
	s.inflight[key] = cl
	s.mu.Unlock()
	c.inflight.Add(1)
	span.End()
	ctx, cancel := within(ctx, timeout)
	defer cancel()

	// A panicking step must still clear the in-flight entry and release
	// the waiters, or every later request for the key would wait on a
	// call that never completes; the panic becomes the shared error.
	val, outcome, err := func() (val []byte, outcome Outcome, err error) {
		defer func() {
			if p := recover(); p != nil {
				val, err = nil, fmt.Errorf("servecache: leader panicked: %v", p)
			}
		}()
		return step(ctx)
	}()
	cl.val, cl.err = val, err

	s.mu.Lock()
	delete(s.inflight, key)
	switch {
	case err != nil: // shared with the waiters, never stored
	case outcome == Peer:
		s.retain(key, val)
	default:
		s.insert(key, val, c)
	}
	s.mu.Unlock()
	c.inflight.Add(-1)
	close(cl.done)
	return c.orStale(s, key, val, outcome, err)
}

// within bounds ctx by timeout when it is positive: a lookup that
// missed arms it after releasing the shard lock.
func within(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// orStale returns the result unchanged unless it failed and the stale
// tier still holds key; then the retained bytes are served instead.
func (c *Cache) orStale(s *shard, key string, val []byte, outcome Outcome, err error) ([]byte, Outcome, error) {
	if err != nil {
		if stale, ok := s.staleGet(key); ok {
			c.staleServed.Add(1)
			return stale, Stale, nil
		}
	}
	return val, outcome, err
}

// insert adds (or refreshes) key under the shard lock, evicting the
// least-recently-used entry into the stale retention tier when the shard
// is full. A key re-entering the live tier leaves no stale shadow.
func (s *shard) insert(key string, val []byte, c *Cache) {
	if s.capacity == 0 {
		return
	}
	if el, ok := s.entries[key]; ok {
		el.Value.(*lruEntry).val = val
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.capacity {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			old := oldest.Value.(*lruEntry)
			delete(s.entries, old.key)
			s.retain(old.key, old.val)
			c.evictions.Add(1)
		}
	}
	s.entries[key] = s.order.PushFront(&lruEntry{key: key, val: val})
	if el, ok := s.stale[key]; ok {
		s.staleOrder.Remove(el)
		delete(s.stale, key)
	}
}

// retain parks an evicted entry in the stale tier, which is bounded by
// the same per-shard capacity as the live tier. Caller holds s.mu.
func (s *shard) retain(key string, val []byte) {
	if el, ok := s.stale[key]; ok {
		el.Value.(*lruEntry).val = val
		s.staleOrder.MoveToFront(el)
		return
	}
	if s.staleOrder.Len() >= s.capacity {
		oldest := s.staleOrder.Back()
		if oldest != nil {
			s.staleOrder.Remove(oldest)
			delete(s.stale, oldest.Value.(*lruEntry).key)
		}
	}
	s.stale[key] = s.staleOrder.PushFront(&lruEntry{key: key, val: val})
}

// staleGet looks the key up in the stale retention tier.
func (s *shard) staleGet(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.stale[key]; ok {
		s.staleOrder.MoveToFront(el)
		return el.Value.(*lruEntry).val, true
	}
	return nil, false
}

// Len returns the number of cached responses across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the total entry budget across all shards.
func (c *Cache) Capacity() int {
	n := 0
	for _, s := range c.shards {
		n += s.capacity
	}
	return n
}

// StaleLen returns the number of retained (evicted) responses across all
// shards.
func (c *Cache) StaleLen() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.staleOrder.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Coalesced    int64 `json:"coalesced"`
	Evictions    int64 `json:"evictions"`
	StaleServed  int64 `json:"staleServed"`
	Inflight     int64 `json:"inflight"`
	Entries      int   `json:"entries"`
	StaleEntries int   `json:"staleEntries"`
	Capacity     int   `json:"capacity"`
	Shards       int   `json:"shards"`
}

// Stats snapshots the counters. Entries walks the shards, so the value
// is consistent per shard but not across a concurrent fill.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Coalesced:    c.coalesced.Load(),
		Evictions:    c.evictions.Load(),
		StaleServed:  c.staleServed.Load(),
		Inflight:     c.inflight.Load(),
		Entries:      c.Len(),
		StaleEntries: c.StaleLen(),
		Capacity:     c.Capacity(),
		Shards:       len(c.shards),
	}
}
