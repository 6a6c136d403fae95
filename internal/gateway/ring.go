package gateway

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"

	"repro/internal/httpapi"
	"repro/internal/tensor"
)

// Ring is a consistent-hash ring over replica addresses. Each member owns
// Vnodes points on a 64-bit circle; a key is served by the member owning
// the first point clockwise of the key's hash. Removing one member moves
// only the keys that member owned — every other key keeps its replica, so
// replica-local route caches and micro-batch locality survive fleet churn.
//
// Ring also measures that guarantee: it tracks the owner last assigned to
// each routed key, and Remove reports how many tracked keys actually moved
// (ShrinkStats), which the gateway benchmark asserts against.
type Ring struct {
	mu     sync.Mutex
	vnodes int
	points []ringPoint // sorted by hash
	member map[string]bool

	// owners tracks key→member assignments for affinity accounting,
	// bounded to ownersCap entries (measurement, not correctness).
	owners    map[uint64]string
	ownersCap int
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultVnodes is the per-member virtual-node count: high enough that a
// 2-16 replica fleet shards within a few percent of even, low enough that
// membership changes stay O(small).
const DefaultVnodes = 64

// defaultOwnersCap bounds the affinity tracker. The benchmark workload is
// far smaller; the bound only protects long-lived gateways.
const defaultOwnersCap = 1 << 16

// NewRing builds an empty ring; vnodes <= 0 selects DefaultVnodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{
		vnodes:    vnodes,
		member:    make(map[string]bool),
		owners:    make(map[uint64]string),
		ownersCap: defaultOwnersCap,
	}
}

func vnodeHash(member string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", member, i)
	return h.Sum64()
}

// KeyHash hashes a request vector to its ring key: the hash of the raw float
// bits that also keys the replica's route cache, so the same input always
// lands on the same replica (which is what makes that cache effective).
func KeyHash(x tensor.Vector) uint64 { return x.HashBits() }

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[member] {
		return
	}
	r.member[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{vnodeHash(member, i), member})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a member and reports how the tracked keys moved: of the
// keys whose last assignment is recorded, how many changed owner, and how
// many of the keys owned by SURVIVING members stayed put (the consistent
// hashing guarantee — keys of the removed member must move, the rest must
// not). Tracked keys are reassigned to their new owners so consecutive
// shrinks measure correctly. Removing an unknown member is a no-op with
// zero stats.
func (r *Ring) Remove(member string) httpapi.ShrinkStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := httpapi.ShrinkStats{Removed: member}
	if !r.member[member] {
		return st
	}
	delete(r.member, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept

	survivorKeys, survivorStayed := 0, 0
	for key, owner := range r.owners {
		now := r.ownerLocked(key)
		if now == "" {
			delete(r.owners, key) // ring emptied
			continue
		}
		st.KeysTracked++
		if owner != member {
			survivorKeys++
			if now == owner {
				survivorStayed++
			}
		}
		if now != owner {
			st.KeysMoved++
			r.owners[key] = now
		}
	}
	if st.KeysTracked > 0 {
		st.MovedFraction = float64(st.KeysMoved) / float64(st.KeysTracked)
	}
	if survivorKeys > 0 {
		st.RetainedOfSurvivors = float64(survivorStayed) / float64(survivorKeys)
	}
	return st
}

// ownerLocked returns the member owning key, or "" on an empty ring.
func (r *Ring) ownerLocked(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Owner returns the member owning key and records the assignment for
// affinity accounting. "" means the ring is empty.
func (r *Ring) Owner(key uint64) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.ownerLocked(key)
	if m != "" && (len(r.owners) < r.ownersCap || r.owners[key] != "") {
		r.owners[key] = m
	}
	return m
}

// Successors returns up to n distinct members in ring order starting at the
// key's owner — the failover candidate list. The owner is element 0.
func (r *Ring) Successors(key uint64, n int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	out := make([]string, 0, n)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for scanned := 0; scanned < len(r.points) && len(out) < n; scanned++ {
		// out holds at most the member count: a linear scan beats a map.
		if p := r.points[(i+scanned)%len(r.points)]; !slices.Contains(out, p.member) {
			out = append(out, p.member)
		}
	}
	return out
}

// Members returns the live membership, sorted.
func (r *Ring) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.member))
	for m := range r.member {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.member)
}
