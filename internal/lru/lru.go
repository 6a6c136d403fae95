// Package lru is the one least-recently-used cache of the serving stack: the
// replica's route cache and the gateway's session cache are both thin locked
// wrappers over it.
//
// Entries live in one slice (a slab) and are linked by int32 indices, so the
// garbage collector sees one object instead of one per entry, and replacing
// the least recently used entry allocates nothing: Put hands back the evicted
// slot with its previous contents, and a caller whose values own buffers
// refills them in place.
package lru

import "math"

// none terminates the recency list and the free list.
const none = int32(-1)

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32 // towards more / less recently used; next also chains free slots
}

// Cache is a fixed-capacity LRU map. It is not safe for concurrent use: both
// of its users already hold a mutex around every call.
type Cache[K comparable, V any] struct {
	capacity   int
	entries    []entry[K, V] // grows by append up to capacity, never beyond
	index      map[K]int32
	head, tail int32 // most / least recently used; none when empty
	free       int32 // slots emptied by Delete, chained through next
}

// New returns a cache holding up to capacity entries. Nothing is allocated
// up front — slab and index grow as entries arrive, so a huge capacity costs
// nothing until it is used. A capacity of zero or less stores nothing.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	capacity = min(max(capacity, 0), math.MaxInt32)
	return &Cache[K, V]{capacity: capacity, index: make(map[K]int32), head: none, tail: none, free: none}
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int { return len(c.index) }

// Get returns the value stored under k and marks it most recently used. The
// pointer is into the slab: valid for reading and writing until the next Put
// or Delete.
func (c *Cache[K, V]) Get(k K) (*V, bool) {
	i, ok := c.index[k]
	if !ok {
		return nil, false
	}
	c.toFront(i)
	return &c.entries[i].val, true
}

// Put makes k the most recently used key and returns its value slot for the
// caller to fill, valid until the next Put or Delete. For a key already held
// that is its current value. For a new key it is a zero value while the cache
// is filling and, once full, the slot of the least recently used entry —
// evicted, but with its contents left in place, so a value that owns a buffer
// can be overwritten into it rather than reallocated. A zero-capacity cache
// returns nil.
func (c *Cache[K, V]) Put(k K) *V {
	if i, ok := c.index[k]; ok {
		c.toFront(i)
		return &c.entries[i].val
	}
	var i int32
	switch {
	case c.free != none:
		i = c.free
		c.free = c.entries[i].next
	case len(c.entries) < c.capacity:
		i = int32(len(c.entries))
		c.entries = append(c.entries, entry[K, V]{})
	case c.tail != none:
		i = c.tail
		c.unlink(i)
		delete(c.index, c.entries[i].key)
	default:
		return nil
	}
	c.entries[i].key = k
	c.index[k] = i
	c.pushFront(i)
	return &c.entries[i].val
}

// Delete removes k and reports whether it was held. The slot is zeroed —
// a deleted value pins nothing — and is the next one Put fills.
func (c *Cache[K, V]) Delete(k K) bool {
	i, ok := c.index[k]
	if !ok {
		return false
	}
	c.unlink(i)
	delete(c.index, k)
	c.entries[i] = entry[K, V]{next: c.free}
	c.free = i
	return true
}

func (c *Cache[K, V]) toFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *Cache[K, V]) pushFront(i int32) {
	e := &c.entries[i]
	e.prev, e.next = none, c.head
	if c.head != none {
		c.entries[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *Cache[K, V]) unlink(i int32) {
	e := &c.entries[i]
	if e.prev != none {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}
