package serve

import (
	"slices"
	"sync"

	"repro/internal/lru"
	"repro/internal/tensor"
)

// routeCache is a concurrency-safe LRU from request input to routing
// decision. It exists to keep the hot path off the embedding network:
// a repeated input skips the encoder forward pass and the memory scan
// entirely. Entries carry the snapshot version they were computed against
// and are ignored (then overwritten) after a hot swap, so a stale cache can
// never route into a retired snapshot.
//
// Keys are tensor.Vector.HashBits of the input; the full input is kept in
// the entry and compared on lookup, so hash collisions degrade to misses,
// never to wrong answers. The hash is computed once per request, by get, and
// handed back for the worker's put; a disabled cache never computes it.
type routeCache struct {
	mu sync.Mutex
	c  *lru.Cache[uint64, routeEntry] // nil when caching is disabled
}

type routeEntry struct {
	x       tensor.Vector // copy of the input (collision guard); the slot owns its backing array
	expert  int           // index into Snapshot.Experts()
	matched bool
	version int // snapshot version the decision belongs to
}

// newRouteCache builds a cache holding up to capacity decisions;
// capacity <= 0 disables caching (every lookup misses).
func newRouteCache(capacity int) *routeCache {
	if capacity <= 0 {
		return &routeCache{}
	}
	return &routeCache{c: lru.New[uint64, routeEntry](capacity)}
}

// get returns x's cache key and, on a hit, the decision cached for x under
// the given snapshot version.
func (c *routeCache) get(x tensor.Vector, version int) (key uint64, expert int, matched, ok bool) {
	if c.c == nil {
		return 0, 0, false, false
	}
	key = x.HashBits()
	c.mu.Lock()
	defer c.mu.Unlock()
	// The lookup refreshes the entry's recency even when the guards below
	// turn it into a miss: the miss is about to put the same key.
	e, found := c.c.Get(key)
	if !found || e.version != version || !sameInput(e.x, x) {
		return key, 0, false, false
	}
	return key, e.expert, e.matched, true
}

// put records a routing decision under the key get returned for x, evicting
// the least recently used entry when full. A same-key entry is overwritten
// (this is how post-swap entries replace stale ones). Either way the input is
// copied into the slot's existing backing array, so a full cache — or one
// being re-filled after a swap — allocates nothing.
func (c *routeCache) put(key uint64, x tensor.Vector, version, expert int, matched bool) {
	if c.c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.c.Put(key)
	e.x = append(e.x[:0], x...)
	e.expert, e.matched, e.version = expert, matched, version
}

// enabled reports whether the cache stores anything at all (capacity > 0).
// A disabled cache turns every request into a bypass, which the metrics
// count separately from genuine misses.
func (c *routeCache) enabled() bool { return c.c != nil }

// sameInput reports element-equal inputs (NaN-bearing inputs compare
// unequal and degrade to cache misses, which is safe).
func sameInput(a, b tensor.Vector) bool { return slices.Equal(a, b) }

// len returns the number of cached decisions, stale-version ones included.
func (c *routeCache) len() int {
	if c.c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Len()
}
