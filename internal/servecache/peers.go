package servecache

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/calcm/heterosim/internal/baseurl"
	"github.com/calcm/heterosim/internal/telemetry"
)

// This file is the peer-aware tier: consistent-hash ownership of
// canonical cache keys across a static peer list, so N daemons behave
// like one big cache. Every peer derives the identical ring from the
// sorted canonical membership, so for any key exactly one process is
// the owner cluster-wide. A non-owner answers by fetching the owner's
// response over HTTP (single hop — the owner never forwards again),
// with the local singleflight table still coalescing concurrent
// identical requests so the cluster performs at most one fetch, and the
// owner's own singleflight at most one compute, per cold key.
//
// Failure never loses a request: the model layer is pure, so when the
// owner is unreachable the non-owner simply computes locally — a local
// copy can never be wrong, only redundant — and retains peer-fetched
// bytes in the stale tier for serving when both paths fail.

// ringReplicas is the number of virtual nodes per peer. 64 keeps the
// per-peer ownership share within a few percent of uniform for small
// static clusters while the ring stays tiny (64*N points).
const ringReplicas = 64

// Ring is a consistent-hash ring over a static peer list. Ownership is
// a pure function of (sorted membership, key): every peer that was
// given the same member set — in any order — computes the same owner
// for every key.
type Ring struct {
	peers  []string
	points []ringPoint // sorted by hash, ties by peer index
}

type ringPoint struct {
	hash uint64
	peer int
}

// NewRing builds the ring. peers must be non-empty, canonical
// (baseurl.Normalize spellings), and free of duplicates; order does not
// matter — membership is sorted internally.
func NewRing(peers []string) (*Ring, error) {
	if len(peers) == 0 {
		return nil, errors.New("servecache: ring needs at least one peer")
	}
	sorted := baseurl.Sorted(peers)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("servecache: duplicate peer %q", sorted[i])
		}
	}
	r := &Ring{peers: sorted, points: make([]ringPoint, 0, len(sorted)*ringReplicas)}
	for pi, peer := range sorted {
		for v := 0; v < ringReplicas; v++ {
			h := fnv.New64a()
			h.Write([]byte(peer))
			h.Write([]byte{'#'})
			h.Write([]byte(strconv.Itoa(v)))
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), peer: pi})
		}
	}
	// Ties (identical vnode hashes across peers) break toward the lower
	// sorted-peer index, keeping the order deterministic everywhere.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// Peers returns the sorted canonical membership.
func (r *Ring) Peers() []string {
	return append([]string(nil), r.peers...)
}

// mix64 is the splitmix64 finalizer: FNV-1a alone avalanches poorly on
// near-identical inputs (vnode spellings differ by one digit), which
// clumps ring points and skews ownership shares badly; the finalizer
// restores a near-uniform spread.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the peer owning key: the first ring point at or after
// the key's hash, wrapping at the top.
func (r *Ring) Owner(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	kh := mix64(h.Sum64())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0
	}
	return r.peers[r.points[i].peer]
}

// ParsePeers canonicalizes a cluster membership flag pair: self is this
// process's advertised base URL, peers a comma-separated list of every
// member (self included). Both go through internal/baseurl so spelling
// variants collapse before the ring is built, and self must name one of
// the members — a process that is not in its own ring would forward
// every request.
func ParsePeers(self, peers string) (string, []string, error) {
	selfNorm, err := baseurl.Normalize(self)
	if err != nil {
		return "", nil, fmt.Errorf("servecache: peer self: %w", err)
	}
	list, err := baseurl.NormalizeList(peers)
	if err != nil {
		return "", nil, fmt.Errorf("servecache: peer list: %w", err)
	}
	list = baseurl.Sorted(list)
	found := false
	for _, p := range list {
		if p == selfNorm {
			found = true
			break
		}
	}
	if !found {
		return "", nil, fmt.Errorf("servecache: self %q is not in the peer list %v", selfNorm, list)
	}
	return selfNorm, list, nil
}

// Fetch retrieves the owner's response for key over the wire. It
// returns the response bytes plus the owner's cache-outcome string
// (the X-Heterosim-Cache header), which feeds the peer hit/miss
// counters. Implementations must mark the request as a peer hop so the
// owner serves locally instead of forwarding again.
type Fetch func(ctx context.Context, owner, key string) ([]byte, string, error)

// Cluster layers peer ownership over a Cache. Construct with
// NewCluster; safe for concurrent use.
type Cluster struct {
	cache *Cache
	ring  *Ring
	self  string
	fetch Fetch

	fetches        atomic.Int64
	peerHits       atomic.Int64
	peerMisses     atomic.Int64
	fetchErrors    atomic.Int64
	localFallbacks atomic.Int64
}

// NewCluster builds the peer tier for one process. peers must include
// self; both must already be canonical (use ParsePeers).
func NewCluster(cache *Cache, self string, peers []string, fetch Fetch) (*Cluster, error) {
	if cache == nil {
		return nil, errors.New("servecache: cluster needs a cache")
	}
	if fetch == nil {
		return nil, errors.New("servecache: cluster needs a fetch function")
	}
	ring, err := NewRing(peers)
	if err != nil {
		return nil, err
	}
	found := false
	for _, p := range ring.peers {
		if p == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("servecache: self %q is not in the peer list %v", self, ring.peers)
	}
	return &Cluster{cache: cache, ring: ring, self: self, fetch: fetch}, nil
}

// Owner returns the peer owning key.
func (cl *Cluster) Owner(key string) string { return cl.ring.Owner(key) }

// IsLocal reports whether this process owns key.
func (cl *Cluster) IsLocal(key string) bool { return cl.ring.Owner(key) == cl.self }

// Self returns this process's canonical base URL.
func (cl *Cluster) Self() string { return cl.self }

// Peers returns the sorted canonical membership.
func (cl *Cluster) Peers() []string { return cl.ring.Peers() }

// Do is the cluster-aware Cache.Do: when this process owns key the
// local cache answers exactly as in the single-node case; otherwise the
// response is fetched from the owner (outcome Peer), with the local
// singleflight table coalescing concurrent identical requests onto one
// fetch. Fetched bytes are retained in the stale tier — the owner holds
// the live copy for the cluster — so a later owner outage can still be
// served. When the fetch fails, fn computes locally (purity makes the
// local copy correct) and fills the live tier; when both fail, retained
// stale bytes are the last resort. timeout is Cache.Do's: it bounds the
// fetch and the fallback together, and a hit arms none.
func (cl *Cluster) Do(ctx context.Context, key string, timeout time.Duration, fn func(ctx context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	if cl.IsLocal(key) {
		return cl.cache.Do(ctx, key, timeout, fn)
	}
	return cl.cache.do(ctx, key, timeout, func(ctx context.Context) ([]byte, Outcome, error) {
		pspan := telemetry.StartSpan(ctx, "peer")
		val, outcome, err := cl.fetch(ctx, cl.ring.Owner(key), key)
		pspan.End()
		cl.fetches.Add(1)
		if err == nil {
			switch outcome {
			case "hit", "coalesced", "stale":
				cl.peerHits.Add(1)
			default:
				cl.peerMisses.Add(1)
			}
			return val, Peer, nil
		}
		cl.fetchErrors.Add(1)
		// Owner unreachable: compute locally. The model is pure, so the
		// local result is byte-identical to whatever the owner would
		// have served, and filling the live tier makes repeated requests
		// during the outage local hits.
		val, out, err := cl.cache.evaluate(ctx, fn)
		if err == nil {
			cl.localFallbacks.Add(1)
		}
		return val, out, err
	})
}

// PeerStats is a point-in-time snapshot of the peer-tier counters.
type PeerStats struct {
	Self           string   `json:"self"`
	Peers          []string `json:"peers"`
	Fetches        int64    `json:"fetches"`
	Hits           int64    `json:"hits"`
	Misses         int64    `json:"misses"`
	FetchErrors    int64    `json:"fetchErrors"`
	LocalFallbacks int64    `json:"localFallbacks"`
}

// Stats snapshots the peer counters.
func (cl *Cluster) Stats() PeerStats {
	return PeerStats{
		Self:           cl.self,
		Peers:          cl.ring.Peers(),
		Fetches:        cl.fetches.Load(),
		Hits:           cl.peerHits.Load(),
		Misses:         cl.peerMisses.Load(),
		FetchErrors:    cl.fetchErrors.Load(),
		LocalFallbacks: cl.localFallbacks.Load(),
	}
}
