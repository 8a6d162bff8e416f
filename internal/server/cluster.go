package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/calcm/heterosim/internal/servecache"
	"github.com/calcm/heterosim/internal/telemetry"
)

// This file is the serving side of the peer-aware cache tier: the HTTP
// fetch that servecache.Cluster uses to reach a key's owner, and the
// single-hop guard that keeps forwarding from ever chaining.
//
// The wire format is the serving API itself: a canonical cache key is
// "<path>\x00<canonical request JSON>" (engine.CanonicalKey), so the
// owner fetch is simply the same POST the client sent, re-issued
// against the owner's base URL with the canonical body. Canonical
// bodies re-canonicalize to themselves, so the owner derives the
// identical key and its singleflight collapses concurrent fetches from
// every non-owner into one compute — singleflight is preserved
// cluster-wide with no extra protocol.

// headerPeerHop marks a request as already forwarded once. A server
// seeing it always answers from its local cache/compute path — never
// the cluster path — so a request crosses at most one process
// boundary, even while peers briefly disagree about membership during
// a rolling restart.
const headerPeerHop = "X-Heterosim-Peer-Hop"

// initCluster wires the peer tier when Config.Peers is set; no-op
// (nil cluster) otherwise.
func (s *Server) initCluster() error {
	if len(s.cfg.Peers) == 0 {
		return nil
	}
	self, peers, err := servecache.ParsePeers(s.cfg.PeerSelf, strings.Join(s.cfg.Peers, ","))
	if err != nil {
		return err
	}
	// The fetch client carries no global timeout: each fetch is bounded
	// by its per-call context (PeerTimeout capped by the request
	// deadline).
	hc := &http.Client{}
	cluster, err := servecache.NewCluster(s.cache, self, peers, s.peerFetch(hc))
	if err != nil {
		return err
	}
	s.cluster = cluster
	return nil
}

// peerFetch builds the servecache.Fetch closure: re-issue the
// canonical request against the owner, marked as a peer hop, and
// return the response bytes plus the owner's cache outcome.
func (s *Server) peerFetch(hc *http.Client) servecache.Fetch {
	return func(ctx context.Context, owner, key string) ([]byte, string, error) {
		path, body, ok := splitKey(key)
		if !ok {
			return nil, "", fmt.Errorf("server: malformed cache key %q", key)
		}
		fctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(fctx, http.MethodPost, owner+path, strings.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(headerPeerHop, "1")
		// Propagate the request ID so the owner's access log joins this
		// fetch back to the originating request.
		if id := telemetry.RequestID(ctx); id != "" {
			req.Header.Set(telemetry.HeaderRequestID, id)
		}
		res, err := hc.Do(req)
		if err != nil {
			return nil, "", err
		}
		defer res.Body.Close()
		payload, err := readPeerBody(res)
		if err != nil {
			return nil, "", err
		}
		if res.StatusCode != http.StatusOK {
			// A non-200 from the owner (it is saturated, or the request
			// raced a config change) is a fetch failure: the caller
			// falls back to computing locally, which never makes the
			// response worse.
			return nil, "", fmt.Errorf("server: peer %s returned %d: %s",
				owner, res.StatusCode, strings.TrimSpace(string(payload)))
		}
		return payload, res.Header.Get("X-Heterosim-Cache"), nil
	}
}

// maxPeerBody bounds one peer response read.
const maxPeerBody = 64 << 20

// readPeerBody reads an owner's response body, at most maxPeerBody
// bytes, into a slice exactly its length: a fetched body is retained in
// the stale tier, where spare capacity would be held for as long as the
// entry lives. The owner declares Content-Length, so the body is
// normally read once into a presized buffer.
func readPeerBody(res *http.Response) ([]byte, error) {
	lr := io.LimitReader(res.Body, maxPeerBody)
	if n := res.ContentLength; n >= 0 && n <= maxPeerBody {
		b := make([]byte, n)
		if _, err := io.ReadFull(lr, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	b, err := io.ReadAll(lr)
	if err != nil || cap(b) == len(b) {
		return b, err
	}
	exact := make([]byte, len(b))
	copy(exact, b)
	return exact, nil
}

// splitKey splits a canonical cache key back into (path, body).
func splitKey(key string) (path, body string, ok bool) {
	i := strings.IndexByte(key, 0)
	if i < 0 || !strings.HasPrefix(key, "/") {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

// lookup routes one keyed model evaluation: the local cache when
// single-node or when this request already crossed a peer boundary
// (the single-hop guarantee), the cluster tier otherwise. A positive
// timeout bounds the wait or the lead on a miss (servecache.Cache.Do).
func (s *Server) lookup(ctx context.Context, r *http.Request, key string, timeout time.Duration, fn func(ctx context.Context) ([]byte, error)) ([]byte, servecache.Outcome, error) {
	if s.cluster == nil || r.Header.Get(headerPeerHop) != "" {
		return s.cache.Do(ctx, key, timeout, fn)
	}
	return s.cluster.Do(ctx, key, timeout, fn)
}

// Cluster exposes the peer tier (nil when single-node), for tests and
// the daemon's startup log.
func (s *Server) Cluster() *servecache.Cluster { return s.cluster }
