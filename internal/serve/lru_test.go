package serve

import (
	"testing"

	"repro/internal/tensor"
)

// lookup and record are get and put as the server pairs them: the key comes
// from the lookup's hash.
func lookup(c *routeCache, x tensor.Vector, version int) (expert int, matched, ok bool) {
	_, expert, matched, ok = c.get(x, version)
	return expert, matched, ok
}

func record(c *routeCache, x tensor.Vector, version, expert int, matched bool) {
	key, _, _, _ := c.get(x, version)
	c.put(key, x, version, expert, matched)
}

func TestRouteCacheBasics(t *testing.T) {
	c := newRouteCache(2)
	a := tensor.Vector{1, 2}
	b := tensor.Vector{3, 4}
	d := tensor.Vector{5, 6}

	if _, _, ok := lookup(c, a, 1); ok {
		t.Fatal("empty cache must miss")
	}
	record(c, a, 1, 7, true)
	if e, m, ok := lookup(c, a, 1); !ok || e != 7 || !m {
		t.Fatalf("got (%d,%v,%v), want (7,true,true)", e, m, ok)
	}
	// Version mismatch is a miss (stale snapshot).
	if _, _, ok := lookup(c, a, 2); ok {
		t.Fatal("stale version must miss")
	}
	// Overwrite with the new version, then the old one misses.
	record(c, a, 2, 3, false)
	if e, _, ok := lookup(c, a, 2); !ok || e != 3 {
		t.Fatalf("overwrite lost: (%d,%v)", e, ok)
	}
	if _, _, ok := lookup(c, a, 1); ok {
		t.Fatal("old version must miss after overwrite")
	}

	// LRU eviction: touch a, insert b then d — b (least recent) evicts.
	record(c, b, 2, 1, false)
	lookup(c, a, 2)
	record(c, d, 2, 9, true)
	if _, _, ok := lookup(c, b, 2); ok {
		t.Fatal("LRU entry must be evicted")
	}
	if _, _, ok := lookup(c, a, 2); !ok {
		t.Fatal("recently used entry must survive")
	}
	if c.len() != 2 {
		t.Fatalf("len=%d, want 2", c.len())
	}
}

func TestRouteCacheDisabled(t *testing.T) {
	c := newRouteCache(-1)
	x := tensor.Vector{1}
	record(c, x, 1, 2, true)
	if key, _, _, ok := c.get(x, 1); ok || key != 0 {
		t.Fatalf("disabled cache must always miss and never hash (key %#x, hit %v)", key, ok)
	}
	if c.len() != 0 {
		t.Fatal("disabled cache must stay empty")
	}
}

// TestRouteCacheCollisionGuard pins that a hash collision cannot return the
// wrong decision: the stored input is compared on lookup. The collision is
// forged the only way one can arise — a different input recorded under a's
// key — and a's lookup, which finds that slot, must miss.
func TestRouteCacheCollisionGuard(t *testing.T) {
	c := newRouteCache(4)
	a := tensor.Vector{1, 2}
	forged := tensor.Vector{9, 9}
	c.put(a.HashBits(), forged, 1, 7, true)
	if c.len() != 1 {
		t.Fatalf("len=%d after one put, want 1", c.len())
	}
	if key, _, _, ok := c.get(a, 1); ok || key != a.HashBits() {
		t.Fatal("mismatched stored input must miss, not return the colliding decision")
	}
	// The miss re-routes a and overwrites the colliding slot: a now hits, and
	// the forged input — same key, different bits — misses in turn.
	record(c, a, 1, 3, false)
	if e, _, ok := lookup(c, a, 1); !ok || e != 3 {
		t.Fatalf("after overwrite: (%d,%v), want (3,true)", e, ok)
	}
	if c.len() != 1 {
		t.Fatalf("len=%d after overwriting the colliding slot, want 1", c.len())
	}
}

// TestRouteCachePutCopiesInput pins the slot's ownership of its input copy:
// the caller's buffer may be rewritten after put (the HTTP tier pools its
// decode buffers), and an evicted slot's backing array is reused in place.
func TestRouteCachePutCopiesInput(t *testing.T) {
	c := newRouteCache(1)
	x := tensor.Vector{1, 2, 3}
	record(c, x, 1, 4, true)
	same := x.Clone()
	x[0] = 99
	if _, _, ok := lookup(c, same, 1); !ok {
		t.Fatal("entry must not alias the caller's buffer")
	}
	if raceEnabled {
		return
	}
	y := tensor.Vector{4, 5, 6}
	if avg := testing.AllocsPerRun(100, func() {
		record(c, y, 1, 0, false) // evicts the other, refills its array
		record(c, same, 1, 0, false)
	}); avg != 0 {
		t.Fatalf("put into a full cache allocates %.1f objects per pair, want 0", avg)
	}
}
