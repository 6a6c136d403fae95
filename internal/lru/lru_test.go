package lru

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the textbook container/list LRU both private caches used to be,
// kept as the model the slab is checked against.
type refLRU struct {
	capacity int
	m        map[int]*list.Element
	l        *list.List // front = most recently used
}

type refEntry struct{ k, v int }

func newRef(capacity int) *refLRU {
	return &refLRU{capacity: capacity, m: map[int]*list.Element{}, l: list.New()}
}

func (r *refLRU) get(k int) (int, bool) {
	el, ok := r.m[k]
	if !ok {
		return 0, false
	}
	r.l.MoveToFront(el)
	return el.Value.(*refEntry).v, true
}

func (r *refLRU) put(k, v int) {
	if el, ok := r.m[k]; ok {
		el.Value.(*refEntry).v = v
		r.l.MoveToFront(el)
		return
	}
	if r.capacity <= 0 {
		return
	}
	if r.l.Len() >= r.capacity {
		oldest := r.l.Back()
		r.l.Remove(oldest)
		delete(r.m, oldest.Value.(*refEntry).k)
	}
	r.m[k] = r.l.PushFront(&refEntry{k, v})
}

func (r *refLRU) del(k int) bool {
	el, ok := r.m[k]
	if ok {
		r.l.Remove(el)
		delete(r.m, k)
	}
	return ok
}

// order lists the keys from most to least recently used — the reverse of the
// order in which they would be evicted.
func (r *refLRU) order() []int {
	var ks []int
	for el := r.l.Front(); el != nil; el = el.Next() {
		ks = append(ks, el.Value.(*refEntry).k)
	}
	return ks
}

func (c *Cache[K, V]) order() []K {
	var ks []K
	for i := c.head; i != none; i = c.entries[i].next {
		ks = append(ks, c.entries[i].key)
	}
	return ks
}

// replay drives the slab and the reference with one op per three bytes of
// script (op = b0%4: Get, Put, Put, Delete; key = b1b2%keys) and fails on the
// first answer or length that differs. The recency order — the reverse of the
// eviction order — is walked and compared every orderEvery-th step and at the
// end.
func replay(t *testing.T, capacity, keys, orderEvery int, script []byte) {
	t.Helper()
	c, ref := New[int, int](capacity), newRef(capacity)
	sameOrder := func(step int) {
		t.Helper()
		if got, want := c.order(), ref.order(); !slices.Equal(got, want) {
			t.Fatalf("cap %d step %d: recency order %v, reference %v", capacity, step, got, want)
		}
	}
	for step := 0; 3*step+2 < len(script); step++ {
		op := script[3*step:]
		k := (int(op[1])<<8 | int(op[2])) % keys
		switch op[0] % 4 {
		case 0:
			want, wantOK := ref.get(k)
			got, ok := c.Get(k)
			if ok != wantOK || (ok && *got != want) {
				t.Fatalf("cap %d step %d: Get(%d) = %v,%v, reference %d,%v", capacity, step, k, got, ok, want, wantOK)
			}
		case 1, 2:
			ref.put(k, step)
			slot := c.Put(k)
			if (slot == nil) != (capacity <= 0) {
				t.Fatalf("cap %d step %d: Put(%d) slot = %v", capacity, step, k, slot)
			}
			if slot != nil {
				*slot = step
			}
		case 3:
			if got, want := c.Delete(k), ref.del(k); got != want {
				t.Fatalf("cap %d step %d: Delete(%d) = %v, reference %v", capacity, step, k, got, want)
			}
		}
		if c.Len() != ref.l.Len() {
			t.Fatalf("cap %d step %d: Len = %d, reference %d", capacity, step, c.Len(), ref.l.Len())
		}
		if len(c.entries) > max(capacity, 0) {
			t.Fatalf("cap %d step %d: slab grew to %d entries", capacity, step, len(c.entries))
		}
		if step%orderEvery == 0 {
			sameOrder(step)
		}
	}
	sameOrder(len(script) / 3)
}

func TestAgainstReference(t *testing.T) {
	for _, capacity := range []int{-1, 0, 1, 2, 7, 4096} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		steps, orderEvery := 20000, 1
		if capacity > 100 {
			steps, orderEvery = 200000, 20000 // the order walk is linear in the entries held
		}
		script := make([]byte, 3*steps)
		rng.Read(script)
		replay(t, capacity, 3*max(capacity, 1)+1, orderEvery, script)
	}
}

// TestSlabGrowsLazily pins that capacity is a bound, not a reservation: an
// operator's huge cache size must cost nothing until entries arrive.
func TestSlabGrowsLazily(t *testing.T) {
	c := New[int, int](1 << 30)
	if cap(c.entries) != 0 {
		t.Fatalf("New preallocated %d entries", cap(c.entries))
	}
	for k := 0; k < 100; k++ {
		*c.Put(k) = k
	}
	if cap(c.entries) > 1024 {
		t.Fatalf("100 entries grew the slab to %d", cap(c.entries))
	}
}

func FuzzLRUAgainstReference(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 0, 0, 0, 0})
	f.Add(uint8(1), []byte{1, 0, 0, 1, 0, 1, 0, 0, 0, 3, 0, 1, 1, 0, 2})
	f.Add(uint8(2), []byte{1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 2, 0, 0, 1, 3, 0, 0, 1, 0, 3, 1, 0, 4})
	f.Add(uint8(7), []byte{1, 0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0, 6, 0, 0, 0, 1, 0, 7, 3, 0, 3, 1, 0, 8, 1, 0, 9})
	f.Fuzz(func(t *testing.T, capacity uint8, script []byte) {
		replay(t, int(capacity%9), 12, 1, script)
	})
}

// TestPutReusesEvictedContents pins what the route cache relies on: at
// capacity, the slot Put returns still holds the evicted entry's value, so a
// buffer in it can be refilled in place; a deleted slot comes back zeroed.
func TestPutReusesEvictedContents(t *testing.T) {
	c := New[int, []byte](2)
	*c.Put(1) = append(make([]byte, 0, 64), "one"...)
	*c.Put(2) = []byte("two")
	slot := c.Put(3) // evicts 1
	if string(*slot) != "one" || cap(*slot) != 64 {
		t.Fatalf("evicted slot holds %q (cap %d), want the previous contents", *slot, cap(*slot))
	}
	*slot = append((*slot)[:0], "three"...)
	if _, ok := c.Get(1); ok {
		t.Fatal("evicted key still present")
	}
	if v, ok := c.Get(3); !ok || string(*v) != "three" {
		t.Fatalf("Get(3) = %q, %v", *v, ok)
	}
	c.Delete(2)
	if slot := c.Put(4); *slot != nil {
		t.Fatalf("slot reused after Delete holds %q, want zero", *slot)
	}
}

func TestPutAtCapacityAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const capacity = 1024
	c := New[uint64, []float64](capacity)
	x := make([]float64, 32)
	next := uint64(0)
	put := func() {
		slot := c.Put(next * 0x9e3779b97f4a7c15)
		*slot = append((*slot)[:0], x...)
		next++
	}
	for i := 0; i < 4*capacity; i++ {
		put() // fill the slab and let the index reach its steady size
	}
	if avg := testing.AllocsPerRun(20000, put); avg != 0 {
		t.Fatalf("Put at capacity allocates %.2f objects per call, want 0", avg)
	}
}

func BenchmarkLRUPutEvict(b *testing.B) {
	const capacity = 4096
	c := New[uint64, []float64](capacity)
	x := make([]float64, 32)
	for i := uint64(0); i < capacity; i++ {
		*c.Put(i) = append([]float64(nil), x...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := c.Put(uint64(capacity+i) * 0x9e3779b97f4a7c15)
		*slot = append((*slot)[:0], x...)
	}
}
