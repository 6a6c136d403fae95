package gateway

import (
	"sync"

	"repro/internal/httpapi"
	"repro/internal/lru"
)

// sessionCache is the gateway-level answer cache: (model, input-hash) →
// the full PredictResponse a replica produced. It sits in front of the
// whole replica fleet, so a repeated input costs zero network hops — the
// fleet-wide analogue of the replica-local route cache.
//
// Entries carry the snapshot version they were answered under and are
// rejected once the model's fleet is known to serve a NEWER snapshot
// (lazy invalidation: the health prober and every proxied answer advance
// the model's known version, and get compares against it). A gateway can
// therefore never keep answering from a retired snapshot after a hot swap,
// without any explicit flush protocol.
//
// Collisions: keys are 64-bit input hashes without the full input retained
// (the gateway does not want to hold every tensor it proxied). A collision
// returns the colliding entry's answer — acceptable for a cache keyed on
// a 64-bit hash of the float bits, where accidental collisions are ~2^-32
// even at million-entry scale, and the same tradeoff a CDN makes.
type sessionCache struct {
	mu sync.Mutex
	c  *lru.Cache[sessionKey, sessionEntry] // nil when caching is disabled
}

type sessionKey struct {
	model string
	key   uint64
}

type sessionEntry struct {
	resp    httpapi.PredictResponse
	version int
}

// newSessionCache builds a cache holding up to capacity answers;
// capacity <= 0 disables caching.
func newSessionCache(capacity int) *sessionCache {
	if capacity <= 0 {
		return &sessionCache{}
	}
	return &sessionCache{c: lru.New[sessionKey, sessionEntry](capacity)}
}

// get returns the cached answer for (model, key) if it was produced under
// the model's current snapshot version. Stale entries are evicted on
// sight.
func (c *sessionCache) get(model string, key uint64, currentVersion int) (httpapi.PredictResponse, bool) {
	if c.c == nil {
		return httpapi.PredictResponse{}, false
	}
	sk := sessionKey{model, key}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.c.Get(sk)
	if !ok {
		return httpapi.PredictResponse{}, false
	}
	if e.version < currentVersion {
		c.c.Delete(sk)
		return httpapi.PredictResponse{}, false
	}
	return e.resp, true
}

// put records a replica answer under the snapshot version it reported.
func (c *sessionCache) put(model string, key uint64, version int, resp httpapi.PredictResponse) {
	if c.c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	*c.c.Put(sessionKey{model, key}) = sessionEntry{resp: resp, version: version}
}

// len returns the number of cached answers.
func (c *sessionCache) len() int {
	if c.c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Len()
}
