package gateway

// The one conditional-GET path. Every versioned view — the /ref reads, the
// intel views and the bug rollup — names its state with a strong ETag
// computed from version counters alone, and serveVersioned does the rest:
// a matching If-None-Match answers 304 before anything is looked up or
// rendered, and full reads come from a bounded body cache keyed by that
// same ETag, so hot non-conditional reads marshal each version once.

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// cacheStats counts one cache family's lookups — every shard's inventory
// cache, say, shares one family. /metrics reports them as body_caches.
type cacheStats struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// bodyCache holds up to limit rendered bodies keyed by their ETag, evicting
// the oldest entry first.
type bodyCache struct {
	stats *cacheStats
	limit int

	mu      sync.Mutex
	entries []cachedBody // oldest first
}

type cachedBody struct {
	etag string
	body []byte
}

// newBodyCache makes a cache of at most limit bodies counted under family.
// Assembly-time only: the family table is read-only once serving starts.
func (g *Gateway) newBodyCache(family string, limit int) *bodyCache {
	st := g.cacheStats[family]
	if st == nil {
		st = &cacheStats{}
		g.cacheStats[family] = st
	}
	return &bodyCache{stats: st, limit: limit}
}

func (c *bodyCache) get(etag string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.etag == etag {
			c.stats.hits.Add(1)
			return e.body, true
		}
	}
	c.stats.misses.Add(1)
	return nil, false
}

// put stores body unless a concurrent render already stored that ETag.
func (c *bodyCache) put(etag string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.etag == etag {
			return
		}
	}
	if len(c.entries) == c.limit {
		copy(c.entries, c.entries[1:])
		c.entries = c.entries[:c.limit-1]
	}
	c.entries = append(c.entries, cachedBody{etag, body})
}

// serveVersioned answers a GET for a view whose state etag names. A
// matching If-None-Match gets an empty 304. Otherwise the body comes from
// c, or from render — called outside the cache lock, so a hit never queues
// behind a render and two concurrent misses may both render — and is
// cached; a render error answers 500. With a nil c every full read renders
// and streams through writeJSON. Callers validate parameters and set any
// Cache-Control or Retry-After header first.
func serveVersioned(w http.ResponseWriter, r *http.Request, etag string, c *bodyCache, render func() (any, error)) {
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if c == nil {
		v, err := render()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, v)
		return
	}
	body, ok := c.get(etag)
	if !ok {
		v, err := render()
		if err == nil {
			body, err = marshalIndent(v)
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		c.put(etag, body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
}

// etagMatches implements the If-None-Match comparison for strong ETags:
// "*" matches anything, otherwise any listed tag must equal etag (weak
// validators — W/ prefixed — are compared by their opaque part, per the
// weak comparison RFC 9110 prescribes for If-None-Match).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}
