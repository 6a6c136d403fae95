package gateway

import (
	"fmt"
	"net/url"
	"sort"
	"sync"

	"repro/internal/httpapi"
)

// registry is the gateway's model table: every named model with its
// replica fleet and consistent-hash ring. Models come from static config
// and from runtime registration (POST /v1/replicas); both paths land here.
type registry struct {
	mu     sync.Mutex
	models map[string]*model
	vnodes int
}

// model is one named checkpoint lineage and the replicas serving it.
type model struct {
	name string
	ring *Ring

	mu       sync.Mutex
	replicas map[string]*replica
	// version is the newest snapshot version any replica has been seen
	// serving — the watermark the session cache invalidates against.
	version    int
	lastShrink *httpapi.ShrinkStats
}

// replica is one serve process inside a model's fleet. healthy mirrors
// ring membership: an unhealthy replica is out of the ring but stays
// registered, and the prober re-admits it when it answers again.
type replica struct {
	addr string
	// predict is the replica's /v1/predict URL, built once and shared
	// read-only by every proxied request.
	predict  *url.URL
	healthy  bool
	failures int
	snapshot int
	// driftScore is the replica's latest calibrated drift score, scraped
	// best-effort from /v1/debug/drift by the probe loop; driftSeen marks
	// that at least one scrape found a live, calibrated monitor.
	driftScore float64
	driftSeen  bool
	// adaptPhase / adaptWindows mirror the replica's continual-adaptation
	// controller, scraped best-effort from /v1/debug/adapt; adaptSeen marks
	// that at least one scrape found a controller attached.
	adaptPhase   string
	adaptWindows uint64
	adaptSeen    bool
}

func newRegistry(static map[string][]string, vnodes int) *registry {
	r := &registry{models: make(map[string]*model), vnodes: vnodes}
	for name, addrs := range static {
		for _, a := range addrs {
			r.addReplica(name, a)
		}
	}
	return r
}

// addReplica registers addr under the named model, creating the model on
// first sight. New replicas join the ring immediately (optimistically
// healthy) so a cold gateway can route before the first probe cycle; a
// dead address is evicted by its first failures.
func (r *registry) addReplica(name, addr string) *model {
	r.mu.Lock()
	m, ok := r.models[name]
	if !ok {
		m = &model{name: name, ring: NewRing(r.vnodes), replicas: make(map[string]*replica)}
		r.models[name] = m
	}
	r.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.replicas[addr]; !ok {
		predict := &url.URL{Scheme: "http", Host: addr, Path: "/v1/predict"}
		m.replicas[addr] = &replica{addr: addr, predict: predict, healthy: true}
		m.ring.Add(addr)
	}
	return m
}

// model returns the named model, resolving "" to httpapi.DefaultModel.
func (r *registry) model(name string) *model {
	if name == "" {
		name = httpapi.DefaultModel
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.models[name]
}

// names returns the registered model names, sorted — the live vocabulary
// for unknown-model 404s.
func (r *registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.models))
	for n := range r.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// all returns every model, sorted by name.
func (r *registry) all() []*model {
	r.mu.Lock()
	out := make([]*model, 0, len(r.models))
	for _, m := range r.models {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// predictURL returns the registered replica's /v1/predict URL.
func (m *model) predictURL(addr string) *url.URL {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replicas[addr].predict
}

// knownVersion returns the model's snapshot watermark.
func (m *model) knownVersion() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// noteSuccess records a successful call or probe against addr, observing
// the snapshot version it served. An evicted replica answering again is
// re-admitted to the ring; the return reports that re-admission.
func (m *model) noteSuccess(addr string, snapshot int) (readmitted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep, ok := m.replicas[addr]
	if !ok {
		return false
	}
	rep.failures = 0
	rep.snapshot = snapshot
	if snapshot > m.version {
		m.version = snapshot
	}
	if !rep.healthy {
		rep.healthy = true
		m.ring.Add(addr)
		return true
	}
	return false
}

// noteDrift records a drift-score scrape against addr. The probe loop
// calls it only when the replica's monitor is enabled and calibrated, so
// a recorded 0 is a genuine "no drift" reading.
func (m *model) noteDrift(addr string, score float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rep, ok := m.replicas[addr]; ok {
		rep.driftScore = score
		rep.driftSeen = true
	}
}

// noteAdapt records a continual-adaptation scrape against addr. The probe
// loop calls it only when the replica reports a controller attached.
func (m *model) noteAdapt(addr, phase string, windows uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rep, ok := m.replicas[addr]; ok {
		rep.adaptPhase = phase
		rep.adaptWindows = windows
		rep.adaptSeen = true
	}
}

// noteFailure records a failed call or probe against addr. Once the
// consecutive-failure count reaches evictAfter the replica leaves the
// ring, and the key movement that causes is captured as the model's
// lastShrink. The return reports whether this failure evicted.
func (m *model) noteFailure(addr string, evictAfter int) (evicted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep, ok := m.replicas[addr]
	if !ok {
		return false
	}
	rep.failures++
	if rep.healthy && rep.failures >= evictAfter {
		rep.healthy = false
		st := m.ring.Remove(addr)
		m.lastShrink = &st
		return true
	}
	return false
}

// replicaAddrs returns all registered replica addresses, sorted —
// including evicted ones (snapshot broadcasts address the whole fleet, so
// a briefly-dead replica fails the broadcast visibly instead of silently
// serving the old snapshot after re-admission).
func (m *model) replicaAddrs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.replicas))
	for a := range m.replicas {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// state renders the model's standing for /v1/state and /v1/models.
func (m *model) state() httpapi.GatewayModelState {
	m.mu.Lock()
	defer m.mu.Unlock()
	reps := make([]httpapi.ReplicaInfo, 0, len(m.replicas))
	healthy := 0
	drifted := 0
	adapting := 0
	var driftSum, driftMax float64
	var adaptWindows uint64
	skew := false
	for _, rep := range m.replicas {
		if rep.healthy {
			healthy++
			// Version skew: a healthy replica serving a snapshot older
			// than the fleet watermark (a partial rollout or failed
			// broadcast swap). Unprobed replicas (snapshot 0) don't
			// count — skew needs two observed, disagreeing versions.
			if rep.snapshot != 0 && rep.snapshot != m.version {
				skew = true
			}
			if rep.driftSeen {
				drifted++
				driftSum += rep.driftScore
				if rep.driftScore > driftMax {
					driftMax = rep.driftScore
				}
			}
			if rep.adaptSeen {
				adaptWindows += rep.adaptWindows
				// Mid-window phases as continual.Controller reports them
				// through httpapi.ContinualState.Phase.
				if rep.adaptPhase == "adapting" || rep.adaptPhase == "validating" {
					adapting++
				}
			}
		}
		reps = append(reps, httpapi.ReplicaInfo{
			Addr: rep.addr, Healthy: rep.healthy, Snapshot: rep.snapshot, Failures: rep.failures,
			DriftScore: rep.driftScore, DriftSeen: rep.driftSeen,
			AdaptPhase: rep.adaptPhase, AdaptWindows: rep.adaptWindows, AdaptSeen: rep.adaptSeen,
		})
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Addr < reps[j].Addr })
	var shrink *httpapi.ShrinkStats
	if m.lastShrink != nil {
		s := *m.lastShrink
		shrink = &s
	}
	st := httpapi.GatewayModelState{
		Name:            m.name,
		Snapshot:        m.version,
		Replicas:        reps,
		HealthyReplicas: healthy,
		VersionSkew:     skew,
		DriftMax:        driftMax,
		LastShrink:      shrink,
	}
	if drifted > 0 {
		st.DriftMean = driftSum / float64(drifted)
	}
	st.AdaptingReplicas = adapting
	st.AdaptWindowsCompleted = adaptWindows
	return st
}

func (m *model) String() string { return fmt.Sprintf("model %q (%d replicas)", m.name, m.ring.Len()) }
