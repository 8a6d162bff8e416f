package servecache

import (
	"strings"
	"testing"
)

// FuzzParsePeers drives arbitrary flag spellings through the peer-list
// parser and, when a membership is accepted, checks the ring invariants
// the cluster depends on: construction succeeds, ownership is total
// (every key has exactly one owner from the membership), deterministic,
// and independent of the spelling that produced the membership.
func FuzzParsePeers(f *testing.F) {
	f.Add("127.0.0.1:9000", "127.0.0.1:9000")
	f.Add("127.0.0.1:9000", "127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002")
	f.Add("http://a:1", "http://a:1/,b:2")
	f.Add("https://secure:443", "https://secure:443,http://plain:80")
	f.Add("a:1", "a:1,a:1")         // duplicate
	f.Add("a:1", "b:2,c:3")         // self missing
	f.Add("", "a:1")                // empty self
	f.Add("a:1", "")                // empty list
	f.Add("a:1", ",,,")             // only separators
	f.Add("ftp://a:1", "ftp://a:1") // bad scheme
	f.Add("http://", "http://")     // empty host
	f.Add("a:1?q=1", "a:1?q=1")     // query
	f.Add("http://u:p@h:1", "http://u:p@h:1")
	f.Add("  spaced:80  ", " spaced:80 , other:81 ")
	f.Add("[::1]:8080", "[::1]:8080,127.0.0.1:1")

	f.Fuzz(func(t *testing.T, self, peers string) {
		selfNorm, list, err := ParsePeers(self, peers)
		if err != nil {
			return
		}
		// Accepted memberships must build a ring...
		ring, err := NewRing(list)
		if err != nil {
			t.Fatalf("ParsePeers accepted %q/%q but NewRing rejected: %v", self, peers, err)
		}
		// ...that contains self...
		found := false
		for _, p := range list {
			if p == selfNorm {
				found = true
			}
			if strings.TrimSpace(p) != p || p == "" {
				t.Fatalf("non-canonical member %q", p)
			}
		}
		if !found {
			t.Fatalf("self %q missing from accepted membership %v", selfNorm, list)
		}
		// ...with total, deterministic, re-parse-stable ownership.
		_, list2, err := ParsePeers(selfNorm, strings.Join(list, ","))
		if err != nil {
			t.Fatalf("canonical membership failed to re-parse: %v", err)
		}
		ring2, err := NewRing(list2)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"", "k", "/v1/optimize\x00{}", self + peers} {
			owner := ring.Owner(key)
			ok := false
			for _, p := range list {
				if p == owner {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("owner %q of key %q is not a member of %v", owner, key, list)
			}
			if o2 := ring2.Owner(key); o2 != owner {
				t.Fatalf("ownership not re-parse-stable for key %q: %q vs %q", key, owner, o2)
			}
		}
	})
}
