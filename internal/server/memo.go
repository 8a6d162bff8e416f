package server

import "sync"

// bodyMemo remembers, per buffered route, which canonical cache key and
// model backend a raw request body resolves to, so a byte-identical
// repeat skips Prepare's strict decode, validation, backend
// construction and key encoding on its way to the cache. Prepare is a
// pure function of the body (the worker default never reaches a key or
// a response), so a remembered pair is exactly what Prepare would
// derive again.
//
// A body is remembered only once it has been answered from the cache
// after a full Prepare, i.e. on its second arrival: traffic whose
// bodies never repeat never writes the memo. Error responses are never
// remembered. The memo holds at most Config.CacheEntries entries (none
// when cache storage is disabled), each at most memoMaxBytes of body
// plus key; when full, an arbitrary entry makes room. The full body is
// the map key, so a match is always byte-exact.
type bodyMemo struct {
	mu    sync.Mutex
	limit int
	n     int
	// routes holds one map per route, indexed like routes; only the
	// routes with a buffered model op use theirs.
	routes []map[string]memoEntry
}

// memoEntry is what Prepare derived from one body, plus the length of
// the response the cache answered it with. The model is pure, so every
// later answer for the key has that length; serveOp still compares it
// before reusing the header value.
type memoEntry struct {
	key    string   // canonical cache key
	model  string   // resolved model backend, for the X-Heterosim-Model header
	size   int      // response length
	length []string // its Content-Length header value, shared by every hit
}

// memoMaxBytes bounds one entry's body plus its canonical key. The
// largest legitimate request is well under a kilobyte (see
// maxBodyBytes), so this only turns away padded or oversized bodies,
// which keeps the memo's memory within limit × memoMaxBytes.
const memoMaxBytes = 4 << 10

func newBodyMemo(limit int) *bodyMemo {
	m := &bodyMemo{limit: max(limit, 0), routes: make([]map[string]memoEntry, len(routes))}
	for i := range m.routes {
		m.routes[i] = make(map[string]memoEntry)
	}
	return m
}

// get returns the entry remembered for body on route i. The lookup
// converts body in place, so a miss allocates nothing.
func (m *bodyMemo) get(i int, body []byte) (memoEntry, bool) {
	m.mu.Lock()
	e, ok := m.routes[i][string(body)]
	m.mu.Unlock()
	return e, ok
}

// put remembers body on route i, unless the memo is disabled or the
// entry is over memoMaxBytes.
func (m *bodyMemo) put(i int, body []byte, e memoEntry) {
	if m.limit == 0 || len(body)+len(e.key) > memoMaxBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rm := m.routes[i]
	if _, ok := rm[string(body)]; ok {
		return
	}
	if m.n >= m.limit {
		m.dropOne(i)
	}
	rm[string(body)] = e
	m.n++
}

// dropOne forgets one entry, from route i when it has any. Caller holds
// m.mu.
func (m *bodyMemo) dropOne(i int) {
	for j := range m.routes {
		rm := m.routes[(i+j)%len(m.routes)]
		for body := range rm {
			delete(rm, body)
			m.n--
			return
		}
	}
}
