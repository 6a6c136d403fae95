package serve

import (
	"sort"
	"sync/atomic"
	"time"
)

// latency histogram: exponential buckets from 1µs doubling up to ~4s, plus
// an overflow bucket. Bucket i covers (2^(i-1)µs, 2^i µs]; bucket 0 covers
// everything up to 1µs.
const (
	histBuckets   = 23
	histBaseMicro = 1
)

// Metrics is the serving tier's observability state. All fields are atomic
// so the request hot path never takes a lock.
type Metrics struct {
	start time.Time

	requests    atomic.Uint64 // completed successfully
	admitted    atomic.Uint64 // accepted into the batching pipeline
	errored     atomic.Uint64 // failed (bad input, closed server)
	rejected    atomic.Uint64 // refused at admission (queue full)
	inflight    atomic.Int64
	matched     atomic.Uint64 // routed via latent-memory match
	fallbacks   atomic.Uint64 // routed to the global fallback
	cacheHits   atomic.Uint64
	cacheMiss   atomic.Uint64
	cacheBypass atomic.Uint64 // cache disabled: request went straight to batched routing
	swaps       atomic.Uint64
	batches     atomic.Uint64 // drained batches
	batched     atomic.Uint64 // requests across all drained batches

	hist      [histBuckets]atomic.Uint64
	batchHist [len(batchSizeBounds) + 1]atomic.Uint64

	// slow is the slowest traced request seen so far — the exemplar the
	// latency quantiles point at on /v1/metrics.
	slow atomic.Pointer[slowTrace]

	// routeCache is read for its occupancy only (set once by the server that
	// owns the cache, before any request; nil on bare Metrics).
	routeCache *routeCache

	// experts is the per-expert routed-request counter set, keyed by
	// training-time expert ID. The map itself is immutable once published
	// (lock-free reads on the hot path); a hot swap installs a fresh map
	// that shares the counter cells of retained IDs, so in-flight requests
	// finishing on the old snapshot still land in the right counter.
	experts atomic.Pointer[expertCounters]
}

// expertCounters is one immutable per-expert counter generation.
type expertCounters struct {
	ids  []int // sorted, for stable exposition order
	byID map[int]*atomic.Uint64
}

// slowTrace ties a latency observation to the trace that produced it.
type slowTrace struct {
	durUs   int64
	traceID string
}

// batchSizeBounds are the upper bounds of the batch-size histogram buckets
// (a final +Inf bucket catches anything beyond MaxBatch=128 configs). The
// distribution is the pipeline's honesty meter: a serving run whose mass
// sits in the le=1 bucket is not batching, whatever its throughput says.
var batchSizeBounds = [...]uint64{1, 2, 4, 8, 16, 32, 64, 128}

// NewMetrics returns zeroed metrics with the clock started.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// InstallExperts publishes the counter set for a (new) snapshot's expert
// IDs. Counters for IDs already tracked are carried over — a hot swap must
// not zero an expert's request history, and requests still draining on the
// old snapshot keep counting into the shared cells.
func (m *Metrics) InstallExperts(ids []int) {
	next := &expertCounters{byID: make(map[int]*atomic.Uint64, len(ids))}
	prev := m.experts.Load()
	for _, id := range ids {
		if next.byID[id] != nil {
			continue
		}
		if prev != nil {
			if c := prev.byID[id]; c != nil {
				next.byID[id] = c
				next.ids = append(next.ids, id)
				continue
			}
		}
		next.byID[id] = &atomic.Uint64{}
		next.ids = append(next.ids, id)
	}
	sort.Ints(next.ids)
	m.experts.Store(next)
}

// CountExpert increments the routed-request counter for one expert ID.
// Lock-free and allocation-free: the published map is never mutated.
func (m *Metrics) CountExpert(id int) {
	if cs := m.experts.Load(); cs != nil {
		if c := cs.byID[id]; c != nil {
			c.Add(1)
		}
	}
}

// ExpertRequests returns the tracked expert IDs (ascending) and their
// routed-request counts.
func (m *Metrics) ExpertRequests() ([]int, []uint64) {
	cs := m.experts.Load()
	if cs == nil {
		return nil, nil
	}
	counts := make([]uint64, len(cs.ids))
	for i, id := range cs.ids {
		counts[i] = cs.byID[id].Load()
	}
	return cs.ids, counts
}

// ObserveBatchSize records one drained batch's request count in the
// batch-size histogram.
func (m *Metrics) ObserveBatchSize(n int) {
	b := len(batchSizeBounds) // +Inf bucket
	for i, bound := range batchSizeBounds {
		if uint64(n) <= bound {
			b = i
			break
		}
	}
	m.batchHist[b].Add(1)
}

// BatchSizeHistogram returns the per-bucket counts (parallel to
// batchSizeBounds, with a trailing +Inf bucket) plus the sum of observed
// batch sizes and the observation count, in Prometheus histogram terms.
func (m *Metrics) BatchSizeHistogram() (bounds []uint64, counts []uint64, sum, count uint64) {
	bounds = batchSizeBounds[:]
	counts = make([]uint64, len(m.batchHist))
	for i := range m.batchHist {
		counts[i] = m.batchHist[i].Load()
	}
	return bounds, counts, m.batched.Load(), m.batches.Load()
}

// ObserveLatency records one completed request's end-to-end latency.
func (m *Metrics) ObserveLatency(d time.Duration) {
	us := d.Microseconds()
	b := 0
	for limit := int64(histBaseMicro); us > limit && b < histBuckets-1; limit *= 2 {
		b++
	}
	m.hist[b].Add(1)
}

// Quantile returns the latency quantile q in seconds, estimated as the
// upper bound of the histogram bucket containing it (conservative: the
// true quantile is at most the reported value). Zero when nothing has been
// recorded.
func (m *Metrics) Quantile(q float64) float64 {
	var counts [histBuckets]uint64
	var total uint64
	for i := range m.hist {
		counts[i] = m.hist[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > target {
			return bucketUpperSeconds(i)
		}
	}
	return bucketUpperSeconds(histBuckets - 1)
}

func bucketUpperSeconds(i int) float64 {
	return float64(int64(histBaseMicro)<<uint(i)) / 1e6
}

// NoteSlowest records a traced request as the slowest-so-far exemplar if
// it exceeds the current one. Lock-free: losers of the CAS retry, so
// the final value is the true maximum.
func (m *Metrics) NoteSlowest(d time.Duration, traceID string) {
	us := d.Microseconds()
	for {
		cur := m.slow.Load()
		if cur != nil && cur.durUs >= us {
			return
		}
		if m.slow.CompareAndSwap(cur, &slowTrace{durUs: us, traceID: traceID}) {
			return
		}
	}
}

// Slowest returns the slowest traced request and its trace ID, or zero
// when no traced request has completed.
func (m *Metrics) Slowest() (time.Duration, string) {
	cur := m.slow.Load()
	if cur == nil {
		return 0, ""
	}
	return time.Duration(cur.durUs) * time.Microsecond, cur.traceID
}

// MetricsSnapshot is a point-in-time copy for rendering.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Requests      uint64  `json:"requests"`
	Admitted      uint64  `json:"admitted"`
	Errored       uint64  `json:"errored"`
	Rejected      uint64  `json:"rejected"`
	Inflight      int64   `json:"inflight"`
	Matched       uint64  `json:"matched"`
	Fallbacks     uint64  `json:"fallbacks"`
	CacheHits     uint64  `json:"cacheHits"`
	CacheMisses   uint64  `json:"cacheMisses"`
	CacheBypass   uint64  `json:"cacheBypass,omitempty"`
	// RouteCacheEntries counts cached decisions, stale-version ones included:
	// a full cache with no hits after a swap is a cache of retired entries.
	RouteCacheEntries int     `json:"routeCacheEntries,omitempty"`
	Swaps             uint64  `json:"swaps"`
	Batches           uint64  `json:"batches"`
	MeanBatch         float64 `json:"meanBatch"`
	P50Seconds        float64 `json:"p50Seconds"`
	P90Seconds        float64 `json:"p90Seconds"`
	P99Seconds        float64 `json:"p99Seconds"`
}

// Snapshot copies the current counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      m.requests.Load(),
		Admitted:      m.admitted.Load(),
		Errored:       m.errored.Load(),
		Rejected:      m.rejected.Load(),
		Inflight:      m.inflight.Load(),
		Matched:       m.matched.Load(),
		Fallbacks:     m.fallbacks.Load(),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMiss.Load(),
		CacheBypass:   m.cacheBypass.Load(),
		Swaps:         m.swaps.Load(),
		Batches:       m.batches.Load(),
		P50Seconds:    m.Quantile(0.50),
		P90Seconds:    m.Quantile(0.90),
		P99Seconds:    m.Quantile(0.99),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(m.batched.Load()) / float64(s.Batches)
	}
	if m.routeCache != nil {
		s.RouteCacheEntries = m.routeCache.len()
	}
	return s
}
