package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/monitor"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config tunes the serving pipeline. Zero values select the defaults.
type Config struct {
	// Workers is the number of prediction workers (default: one per core).
	Workers int
	// MaxBatch flushes an expert's queue when it reaches this many requests
	// (default 32).
	MaxBatch int
	// MaxDelay flushes an expert's queue when its oldest request has waited
	// this long (default 2ms) — the latency cost of batching is bounded by
	// MaxDelay plus one flush tick.
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue; admission beyond it fails
	// fast with ErrOverloaded (default 4096). Requests already handed to
	// the dispatcher's buckets and the worker pool (up to roughly
	// 2×Workers×MaxBatch more) are not counted against it.
	QueueDepth int
	// CacheSize bounds the LRU route cache (default 4096; negative
	// disables caching).
	CacheSize int
	// RouteEpsilonScale inflates the snapshot's reuse threshold ε for
	// routing (default 4). Training calibrates ε on window-mean
	// embeddings; a single request's embedding is a sample of that mean
	// and sits farther from the expert memories, so serving needs a wider
	// acceptance radius before the latent-memory match fires. Negative
	// uses ε unscaled. The effective radius (ε × scale) is visible on
	// GET /v1/snapshot (routeEpsilon) and in /metrics.
	RouteEpsilonScale float64
	// Model is the model name this replica serves under (default
	// httpapi.DefaultModel). Requests addressed to another model are
	// answered 404, and the gateway registers the replica under this name.
	Model string
	// Tracer records request spans (routing decision, batch queue wait)
	// and backs GET /v1/debug/traces. Nil disables tracing; the request
	// path then pays one nil check per span site.
	Tracer *telemetry.Tracer
	// Monitor, when set, receives every batch-routed request's embedding,
	// match margin, chosen expert, and fallback verdict — the drift
	// observability plane behind /v1/debug/drift. The tee is off the
	// request path: samples are copied into preallocated blocks at batch
	// granularity and handed off through a bounded drop-oldest queue, so
	// the hot path never blocks and never allocates for it. Cache-hit
	// requests carry no embedding and are not teed (run the cache disabled
	// for full coverage). The server owns the reference: it installs the
	// snapshot's latent memories on adoption and on every hot swap. Nil
	// disables monitoring.
	Monitor *monitor.Monitor
}

// BindFlags registers the pipeline's tuning flags on fs; parsing fs fills c.
// Every command that builds a Server binds the same names and defaults.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "workers", 0, "prediction workers (0 = one per core)")
	fs.IntVar(&c.MaxBatch, "max-batch", 32, "flush an expert's queue at this many requests")
	fs.DurationVar(&c.MaxDelay, "max-delay", 2*time.Millisecond, "flush an expert's queue when its oldest request has waited this long")
	fs.IntVar(&c.QueueDepth, "queue", 4096, "admission bound; requests beyond it are rejected with 503")
	fs.IntVar(&c.CacheSize, "cache", 4096, "LRU route-cache entries (negative = disable)")
	fs.Float64Var(&c.RouteEpsilonScale, "route-eps-scale", 4, "set the EFFECTIVE match radius to calibrated ε × this scale (single-request embeddings are noisier than the window means ε was calibrated on; negative = use ε unscaled; the resulting radius is visible as routeEpsilon on /v1/snapshot and as shiftex_serve_route_epsilon / shiftex_serve_expert_route_epsilon on /v1/metrics)")
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	switch {
	case c.RouteEpsilonScale == 0:
		c.RouteEpsilonScale = 4
	case c.RouteEpsilonScale < 0:
		c.RouteEpsilonScale = 1
	}
	if c.Model == "" {
		c.Model = httpapi.DefaultModel
	}
	return c
}

// Result is one served prediction.
type Result struct {
	// Class is the predicted label.
	Class int
	// Expert is the training-time ID of the expert that served the request.
	Expert int
	// Matched reports a latent-memory match; false means the global
	// fallback served the request.
	Matched bool
	// Cached reports that routing came from the LRU cache (no encoder pass).
	Cached bool
	// Version is the snapshot version that served the request.
	Version int
}

var (
	// ErrClosed is returned by Predict after Close has begun.
	ErrClosed = errors.New("serve: server is shut down")
	// ErrOverloaded is returned when the admission queue is full.
	ErrOverloaded = errors.New("serve: admission queue full")
)

// outcome is what a worker reports back to the waiting Predict call.
type outcome struct {
	class int
	// expert (an index into snap.Experts()) and matched echo the routing
	// decision: resolved at admission for cache hits, by the worker's
	// batched embedding for everything else.
	expert  int
	matched bool
	err     error
	// total is the worker-measured latency since pending.start (zero on
	// errors); traced requests reuse it to close their batch span
	// without another clock read.
	total time.Duration
	// batchSize and queueWait describe the batch that executed the
	// request; they are only populated for traced requests (enq set).
	batchSize int
	queueWait time.Duration
}

// unrouted marks a pending request whose expert is not yet known: the
// worker routes it (batched through the encoder) before predicting.
const unrouted = -1

// pending is one request's slot in the pipeline. Slots are recycled through
// slotPool, and exactly one party may release one: the Predict call that
// received the outcome from done, or the one refused before admission. A
// caller that gives up on its context abandons its slot — a worker still owns
// it and will send into done — so that slot is never reused; it is garbage
// once the worker has answered it.
type pending struct {
	x    tensor.Vector
	snap *Snapshot
	// key is x's route-cache key, computed once by the admitting caller's
	// lookup and reused by the worker's put (zero when the cache is off).
	key uint64
	// expert is the index into snap.Experts(), or unrouted when the route
	// cache missed and the worker owns the (batched) routing decision.
	expert  int
	matched bool
	cached  bool
	start   time.Time
	enq     time.Time    // enqueue instant; zero unless the request is traced
	done    chan outcome // buffered(1); the worker's send never blocks
}

// slotPool recycles request slots together with their done channels.
var slotPool = sync.Pool{New: func() any { return &pending{done: make(chan outcome, 1)} }}

// release returns a slot whose outcome has been received (or that was never
// admitted) to the pool. The input and the snapshot are dropped first: an idle
// slot pins neither a caller's buffer nor a retired snapshot.
func (p *pending) release() {
	p.x, p.snap = nil, nil
	slotPool.Put(p)
}

// bucketKey identifies a per-expert queue (expert == unrouted keys the
// shared routing queue). Snapshots are part of the key so a hot swap simply
// starts new buckets: requests admitted against the old snapshot drain from
// its buckets onto its (still immutable) models, which is why a swap can
// never drop or corrupt an in-flight request.
type bucketKey struct {
	snap   *Snapshot
	expert int
}

// bucket accumulates one expert's queued requests until a flush. Buckets
// cycle dispatcher → worker → bucketPool → dispatcher, so a flush allocates
// nothing at any batch size.
type bucket struct {
	reqs   []*pending
	oldest time.Time
}

// bucketPool holds executed buckets, emptied and cleared of request pointers
// by the worker that ran them. It has no New: the dispatcher sizes a fresh
// bucket from its own MaxBatch when the pool is empty.
var bucketPool sync.Pool

// batchMsg is one flushed batch handed to the worker pool: the bucket goes
// with it and comes back emptied.
type batchMsg struct {
	snap   *Snapshot
	expert int
	*bucket
}

// Server is the shift-aware inference server: an atomically swappable
// ModelSnapshot behind a routing stage and a micro-batching worker pool.
// All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *routeCache

	snap atomic.Pointer[Snapshot]
	// swapMu serializes Swap's stamp-then-store sequence so concurrent
	// swaps cannot publish versions out of order; readers never take it.
	swapMu sync.Mutex
	swaps  atomic.Int64 // snapshot version counter

	admit chan *pending
	// closeMu serializes admission against Close: Predict sends under
	// RLock after checking closed, so close(admit) can never race a send.
	closeMu sync.RWMutex
	closed  bool

	batches chan batchMsg
	workers sync.WaitGroup
	drained chan struct{} // closed once every worker has exited

	// adaptMu guards the attached adaptation reporter: the continual
	// controller attaches itself after construction (serve cannot import
	// continual — the controller imports serve to drive Swap), and the
	// /v1/state, /v1/metrics, and /v1/debug/adapt handlers read it.
	adaptMu  sync.RWMutex
	adaptRep AdaptReporter
}

// AdaptReporter is the server's view of an attached continual adaptation
// controller: the state-machine snapshot rendered into /v1/state, the
// shiftex_continual_* metric families, and /v1/debug/adapt. Implemented by
// *continual.Controller.
type AdaptReporter interface {
	ContinualState() *httpapi.ContinualState
}

// AttachAdaptation installs (or, with nil, detaches) the continual
// adaptation controller's reporter. Safe for concurrent use with handlers.
func (s *Server) AttachAdaptation(rep AdaptReporter) {
	s.adaptMu.Lock()
	s.adaptRep = rep
	s.adaptMu.Unlock()
}

// Adaptation returns the attached adaptation reporter, or nil.
func (s *Server) Adaptation() AdaptReporter {
	s.adaptMu.RLock()
	defer s.adaptMu.RUnlock()
	return s.adaptRep
}

// NewServer starts a serving pipeline over the given snapshot. The
// snapshot's Version is stamped from the server's swap counter. Call Close
// to drain and stop.
func NewServer(snap *Snapshot, cfg Config) (*Server, error) {
	s, err := newServer(snap, cfg)
	if err != nil {
		return nil, err
	}
	s.startWorkers()
	return s, nil
}

// newServer builds the server and starts its dispatcher; batches queue up
// unexecuted until startWorkers (the ownership tests hold them there).
func newServer(snap *Snapshot, cfg Config) (*Server, error) {
	if snap == nil {
		return nil, errors.New("serve: nil snapshot")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: NewMetrics(),
		cache:   newRouteCache(cfg.CacheSize),
		admit:   make(chan *pending, cfg.QueueDepth),
		batches: make(chan batchMsg, 2*cfg.Workers),
		drained: make(chan struct{}),
	}
	s.metrics.routeCache = s.cache
	snap.Version = int(s.swaps.Add(1))
	snap.routeEps = snap.Epsilon * cfg.RouteEpsilonScale
	s.snap.Store(snap)
	s.metrics.InstallExperts(snap.ExpertIDs())
	if cfg.Monitor != nil {
		cfg.Monitor.SetReference(snap.MonitorReference())
	}

	go s.dispatch()
	return s, nil
}

func (s *Server) startWorkers() {
	s.workers.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	go func() {
		s.workers.Wait()
		close(s.drained)
	}()
}

// Snapshot returns the currently serving snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Config returns the configuration in effect, defaults resolved.
func (s *Server) Config() Config { return s.cfg }

// Metrics exposes the serving counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Swap atomically replaces the serving snapshot. The new snapshot must
// share the running architecture (the workspace pool and route cache are
// arch-shaped); in-flight requests finish on the snapshot they were routed
// against, so no request is ever dropped by a swap.
func (s *Server) Swap(next *Snapshot) error {
	if next == nil {
		return errors.New("serve: nil snapshot")
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.snap.Load()
	if next == cur {
		// Re-stamping the published snapshot would race its readers.
		return errors.New("serve: cannot swap in the currently serving snapshot; build a fresh one")
	}
	if !sameArch(cur.Arch, next.Arch) {
		return fmt.Errorf("serve: snapshot arch %v does not match serving arch %v", next.Arch, cur.Arch)
	}
	next.Version = int(s.swaps.Add(1))
	next.routeEps = next.Epsilon * s.cfg.RouteEpsilonScale
	s.snap.Store(next)
	s.metrics.swaps.Add(1)
	s.metrics.InstallExperts(next.ExpertIDs())
	if s.cfg.Monitor != nil {
		s.cfg.Monitor.SetReference(next.MonitorReference())
	}
	return nil
}

// SwapFromCheckpoint loads a checkpoint file and swaps it in.
func (s *Server) SwapFromCheckpoint(path string) error {
	snap, err := LoadSnapshot(path)
	if err != nil {
		return err
	}
	return s.Swap(snap)
}

func sameArch(a, b []int) bool { return slices.Equal(a, b) }

// Predict serves one request end to end: route (cache or encoder
// embedding + latent-memory match), enqueue on the expert's micro-batch,
// and wait for the worker's prediction. It returns ErrOverloaded without
// queueing when the pipeline is saturated and ErrClosed after Close.
func (s *Server) Predict(ctx context.Context, x tensor.Vector) (Result, error) {
	return s.PredictSpan(ctx, x, telemetry.SpanFromContext(ctx), time.Time{})
}

// PredictSpan is Predict for callers that already hold the parent span and
// the request-start instant (the load generator reads the clock for its own
// latency measurement): it skips the context.WithValue allocation Predict
// would need to carry the span, and at batched throughput a second clock
// read per request is a measurable tax. A nil parent serves the request
// untraced; a zero start is read fresh after the fast-fail checks (so
// refused requests never pay for it).
func (s *Server) PredictSpan(ctx context.Context, x tensor.Vector, parent *telemetry.Span, start time.Time) (Result, error) {
	snap := s.snap.Load()
	if len(x) != snap.InputDim() {
		s.metrics.errored.Add(1)
		return Result{}, fmt.Errorf("serve: input dim %d, want %d: %w", len(x), snap.InputDim(), nn.ErrDimension)
	}
	// Fail fast before the expensive routing stage: a saturated or closed
	// server must not burn an encoder forward pass per refused request
	// (that would turn rejection into an overload amplifier). Both
	// conditions are re-checked authoritatively at the admission point.
	if len(s.admit) == cap(s.admit) {
		s.metrics.rejected.Add(1)
		return Result{}, ErrOverloaded
	}
	s.closeMu.RLock()
	closed := s.closed
	s.closeMu.RUnlock()
	if closed {
		s.metrics.errored.Add(1)
		return Result{}, ErrClosed
	}

	if start.IsZero() {
		start = time.Now()
	}
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	// tr is nil on untraced requests, and every span call below no-ops
	// on the zero Span. The traced path is built to be allocation-free
	// (both spans live on this frame; End copies into the tracer's
	// ring) and to add zero extra clock reads per request: span starts
	// reuse the request-entry instant the pipeline measures anyway, and
	// the batch span is closed from the worker's latency measurement.
	// The cache lookup takes well under the 1µs span-duration
	// resolution, so anchoring both spans (and the queue-wait
	// measurement) at request entry rather than at the true
	// route/enqueue boundary costs no observable precision.
	tr := parent.Tracer()
	var routeSpan, batchSpan telemetry.Span
	tr.BeginAt(&routeSpan, "serve.route", parent.Context(), start)

	// Only the cache is consulted here. On a miss the request is admitted
	// unrouted and a worker batches it through the encoder — one GEMM for
	// the whole batch — so the cold path never pays a per-request forward
	// pass on the caller's goroutine.
	key, expert, matched, cached := s.cache.get(x, snap.Version)
	switch {
	case cached:
		s.metrics.cacheHits.Add(1)
	case s.cache.enabled():
		s.metrics.cacheMiss.Add(1)
		expert = unrouted
	default:
		s.metrics.cacheBypass.Add(1)
		expert = unrouted
	}
	p := slotPool.Get().(*pending)
	p.x, p.snap, p.key = x, snap, key
	p.expert, p.matched, p.cached = expert, matched, cached
	p.start, p.enq = start, time.Time{}
	if tr != nil {
		routeSpan.SetAttrBool("cache.hit", cached)
		if cached {
			routeSpan.SetAttrInt("expert", int64(snap.Experts()[expert].ID))
			routeSpan.SetAttrBool("matched", matched)
		}
		routeSpan.SetAttrInt("snapshot", int64(snap.Version))
		routeSpan.EndAt(start)
		tr.BeginAt(&batchSpan, "serve.batch", parent.Context(), start)
		p.enq = start
	}

	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		p.release()
		s.metrics.errored.Add(1)
		batchSpan.EndErr(ErrClosed)
		return Result{}, ErrClosed
	}
	select {
	case s.admit <- p:
		s.metrics.admitted.Add(1)
		s.closeMu.RUnlock()
	default:
		s.closeMu.RUnlock()
		p.release()
		s.metrics.rejected.Add(1)
		batchSpan.EndErr(ErrOverloaded)
		return Result{}, ErrOverloaded
	}

	var out outcome
	if cancel := ctx.Done(); cancel == nil {
		// No cancellation to watch (context.Background, the in-process
		// load generator): a plain channel receive skips selectgo
		// entirely, which is measurable at batched-pipeline throughput.
		out = <-p.done
	} else {
		select {
		case out = <-p.done:
		case <-cancel:
			// The worker will still complete the request into the
			// buffered done channel; only this caller stops waiting.
			// The slot stays the worker's: it is not released.
			batchSpan.EndErr(ctx.Err())
			return Result{}, ctx.Err()
		}
	}
	p.release()
	if tr != nil {
		batchSpan.SetAttrInt("batch.size", int64(out.batchSize))
		batchSpan.SetAttrInt("queue.us", out.queueWait.Microseconds())
		if out.err == nil {
			batchSpan.SetAttrInt("expert", int64(snap.Experts()[out.expert].ID))
			batchSpan.SetAttrBool("matched", out.matched)
		}
		if out.err == nil && out.total > 0 {
			// The worker already measured this request's total
			// latency for the histogram; ending the span at
			// start+total spares another clock read.
			batchSpan.EndAt(start.Add(out.total))
		} else {
			batchSpan.EndErr(out.err)
		}
	}
	if out.err != nil {
		return Result{}, out.err
	}
	return Result{
		Class:   out.class,
		Expert:  snap.Experts()[out.expert].ID,
		Matched: out.matched,
		Cached:  cached,
		Version: snap.Version,
	}, nil
}

// Close stops admission, drains every queued batch through the workers,
// and returns once all in-flight requests have completed.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		<-s.drained
		return nil
	}
	s.closed = true
	s.closeMu.Unlock()
	close(s.admit) // dispatcher flushes remaining buckets, then closes batches
	<-s.drained
	return nil
}

// dispatch is the single batching goroutine: it owns the per-expert
// buckets, flushing each when it reaches MaxBatch requests or its oldest
// request has waited MaxDelay.
func (s *Server) dispatch() {
	buckets := make(map[bucketKey]*bucket)
	buffered := 0 // requests across all buckets, not yet flushed
	tick := s.cfg.MaxDelay / 2
	if tick < 100*time.Microsecond {
		tick = 100 * time.Microsecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	flush := func(k bucketKey, b *bucket) {
		buffered -= len(b.reqs)
		s.batches <- batchMsg{snap: k.snap, expert: k.expert, bucket: b}
		delete(buckets, k)
	}

	admit := func(p *pending) {
		k := bucketKey{snap: p.snap, expert: p.expert}
		b := buckets[k]
		if b == nil {
			if b, _ = bucketPool.Get().(*bucket); b == nil {
				// grow on demand; huge MaxBatch must not preallocate
				b = &bucket{reqs: make([]*pending, 0, min(s.cfg.MaxBatch, 64))}
			}
			b.oldest = p.start
			buckets[k] = b
		}
		b.reqs = append(b.reqs, p)
		buffered++
		// Adaptive flush. A full bucket always goes. Otherwise flush
		// eagerly only when every request known to be in flight is
		// already buffered here: more inflight than buffered means
		// stragglers are mid-admission (their Predict has started but
		// their enqueue hasn't landed), and waiting for them is what
		// lets meanBatch track the offered concurrency instead of
		// pinning at 1. The admission-queue length alone can't see
		// them — on a single-P runtime the channel wakeup runs the
		// dispatcher before the next client even enqueues, so the
		// queue reads empty under heavy concurrent load. A lone
		// sequential caller still flushes immediately (its one request
		// IS the whole inflight set), and the ticker bounds the wait
		// for stragglers that never arrive at MaxDelay.
		switch {
		case len(b.reqs) >= s.cfg.MaxBatch:
			flush(k, b)
		case len(s.admit) == 0 && int64(buffered) >= s.metrics.inflight.Load():
			for k, b := range buckets {
				flush(k, b)
			}
		}
	}

	for {
		select {
		case p, ok := <-s.admit:
			// Drain the admission queue with non-blocking receives
			// before falling back to the two-case select: selectgo per
			// request is a measurable tax at batched throughput, and
			// the ticker only matters when the queue has gone quiet.
			for ok {
				admit(p)
				select {
				case p, ok = <-s.admit:
					continue
				default:
				}
				break
			}
			if !ok {
				for k, b := range buckets {
					flush(k, b)
				}
				close(s.batches)
				return
			}
		case <-ticker.C:
			now := time.Now()
			for k, b := range buckets {
				if now.Sub(b.oldest) >= s.cfg.MaxDelay {
					flush(k, b)
				}
			}
		}
	}
}

// batchScratch is one worker's reusable state for batched execution: the
// GEMM workspace plus the gather/group slices. All of it is warm after the
// first few batches, and with request slots and buckets recycled too,
// steady-state batch execution allocates nothing.
type batchScratch struct {
	bw      *nn.BatchWorkspace
	xs      []tensor.Vector // gathered batch inputs (headers only)
	classes []int           // per-request predicted class, batch order
	order   []int           // request indices grouped by routed expert
	starts  []int           // per-expert counting-sort offsets
	groupXs []tensor.Vector // one expert group's inputs
	groupCl []int           // one expert group's classes
}

func (s *Server) newScratch() *batchScratch {
	return &batchScratch{bw: nn.NewBatchWorkspaceDims(s.snap.Load().Arch, s.cfg.MaxBatch)}
}

// worker drains flushed batches. A routed batch (cache hits) runs straight
// through its expert's batched forward; an unrouted batch is first embedded
// through the encoder — one GEMM for the whole batch — matched against the
// latent memories per row, then grouped by chosen expert and predicted
// group-by-group. Either way every Dense layer runs as one blocked GEMM
// over the batch instead of a per-sample MatVecInto loop.
func (s *Server) worker() {
	defer s.workers.Done()
	sc := s.newScratch()
	for batch := range s.batches {
		var err error
		if batch.expert == unrouted {
			err = s.routeBatch(sc, batch)
		} else {
			err = s.predictBatch(sc, batch, batch.reqs)
		}
		s.finish(batch, sc.classes, err)
		s.metrics.batches.Add(1)
		s.metrics.batched.Add(uint64(len(batch.reqs)))
		s.metrics.ObserveBatchSize(len(batch.reqs))
		// Every slot now belongs to its caller again (or to nobody): drop
		// the pointers before the bucket idles, and hand it back.
		clear(batch.reqs)
		batch.reqs = batch.reqs[:0]
		bucketPool.Put(batch.bucket)
	}
}

// predictBatch runs one expert's batched forward over reqs, writing classes
// into sc.classes[:len(reqs)] in request order.
func (s *Server) predictBatch(sc *batchScratch, batch batchMsg, reqs []*pending) error {
	sc.xs = sc.xs[:0]
	for _, p := range reqs {
		sc.xs = append(sc.xs, p.x)
	}
	sc.classes = grow(sc.classes, len(reqs))
	model := batch.snap.Experts()[reqs[0].expert].Model
	return model.PredictBatchWS(sc.bw, sc.xs, sc.classes[:len(reqs)])
}

// routeBatch embeds the whole unrouted batch through the encoder in one
// GEMM, matches each row against the expert memories, records the
// decisions in the route cache, then predicts expert group by expert
// group. Classes land in sc.classes in request order.
func (s *Server) routeBatch(sc *batchScratch, batch batchMsg) error {
	reqs := batch.reqs
	snap := batch.snap
	sc.xs = sc.xs[:0]
	for _, p := range reqs {
		sc.xs = append(sc.xs, p.x)
	}
	emb, err := snap.encoder.EmbedBatchWS(sc.bw, sc.xs)
	if err != nil {
		return err
	}
	// Tee every routed sample into the drift monitor at batch granularity:
	// Acquire/Add/Offer are non-blocking and allocation-free, and a
	// saturated monitor costs only a dropped-sample count — never a stall.
	mon := s.cfg.Monitor
	var blk *monitor.Block
	for i, p := range reqs {
		idx, dist, matched := snap.matchSignature(emb.Row(i))
		p.expert, p.matched = idx, matched
		s.cache.put(p.key, p.x, snap.Version, idx, matched)
		if mon == nil {
			continue
		}
		if blk == nil {
			if blk = mon.Acquire(); blk == nil {
				mon.NoteDropped(1)
				continue
			}
		}
		blk.Add(emb.Row(i), snap.experts[idx].ID, dist, matched)
		if blk.Full() {
			blk.SetHits(s.metrics.cacheHits.Load())
			mon.Offer(blk)
			blk = nil
		}
	}
	if blk != nil {
		if blk.Len() > 0 {
			blk.SetHits(s.metrics.cacheHits.Load())
			mon.Offer(blk)
		} else {
			mon.Recycle(blk)
		}
	}

	// Group requests by routed expert with a counting pass (experts are
	// few and batches small — a comparison sort would dominate the batch
	// bookkeeping). Stable by construction: arrival order is preserved
	// within each expert. The embedding matrix is dead at this point, so
	// the same workspace is reused for the expert GEMMs.
	starts := grow(sc.starts, snap.NumExperts())
	sc.starts = starts
	for i := range starts {
		starts[i] = 0
	}
	for _, p := range reqs {
		starts[p.expert]++
	}
	pos := 0
	for e, n := range starts {
		starts[e] = pos
		pos += n
	}
	sc.order = grow(sc.order, len(reqs))
	order := sc.order[:len(reqs)]
	for i, p := range reqs {
		order[starts[p.expert]] = i
		starts[p.expert]++
	}
	sc.classes = grow(sc.classes, len(reqs))
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && reqs[order[hi]].expert == reqs[order[lo]].expert {
			hi++
		}
		sc.groupXs = sc.groupXs[:0]
		for _, oi := range order[lo:hi] {
			sc.groupXs = append(sc.groupXs, reqs[oi].x)
		}
		sc.groupCl = grow(sc.groupCl, hi-lo)
		model := snap.Experts()[reqs[order[lo]].expert].Model
		if err := model.PredictBatchWS(sc.bw, sc.groupXs, sc.groupCl[:hi-lo]); err != nil {
			return err
		}
		for gi, oi := range order[lo:hi] {
			sc.classes[oi] = sc.groupCl[gi]
		}
		lo = hi
	}
	return nil
}

// finish reports one executed batch back to its waiting Predict calls.
// One clock read covers the whole batch: every request's latency ends at
// the batch's completion instant, which is also the traced queue-wait
// anchor (the old per-request time.Since was a measurable per-request cost
// at batch sizes this pipeline now reaches). The send into done hands the
// slot back to its caller, who may release it for reuse at once: p is not
// touched after it.
func (s *Server) finish(batch batchMsg, classes []int, err error) {
	end := time.Now()
	for i, p := range batch.reqs {
		out := outcome{err: err}
		if err != nil {
			s.metrics.errored.Add(1)
		} else {
			out.class = classes[i]
			out.expert = p.expert
			out.matched = p.matched
			out.total = end.Sub(p.start)
			s.metrics.requests.Add(1)
			if p.matched {
				s.metrics.matched.Add(1)
			} else {
				s.metrics.fallbacks.Add(1)
			}
			s.metrics.CountExpert(batch.snap.Experts()[p.expert].ID)
			s.metrics.ObserveLatency(out.total)
		}
		if !p.enq.IsZero() {
			out.batchSize = len(batch.reqs)
			out.queueWait = end.Sub(p.enq)
		}
		p.done <- out
	}
}

// grow returns s with capacity (and length) at least n, reusing the backing
// array whenever it already fits.
func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
