// Package monitor is the serving tier's live drift & model-quality
// observability plane: an off-request-path streaming pipeline that watches
// routed traffic and scores it against the training-time reference the
// snapshot was calibrated on.
//
// The serving hot path tees each batch-routed request (embedding, chosen
// expert, raw match distance, fallback verdict) into a bounded block queue
// with drop-oldest backpressure — producers never block and never allocate
// (queue.go). A single monitor goroutine owns all sketch state: per-expert
// and global streaming mean/variance (stats.VecWelford), a match-margin
// histogram, fallback-rate and cache-bypass EWMAs, plus a baseline/recent
// embedding reservoir pair. Periodically it scores the recent window against
// the baseline with a pluggable stats.DistributionDistance detector,
// normalized by a self-calibrated null threshold (stats.CalibrateThreshold),
// and scores each expert's live embedding mean against its latent memory —
// the per-expert drift series the next adaptation trigger can consume.
//
// The package deliberately imports neither serve nor gateway: serve pushes a
// Reference built from its snapshot and tees samples; gateway scrapes the
// wire types in http.go. Both depend on monitor, never the reverse.
package monitor

import (
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Config tunes the monitor. Zero values select the defaults.
type Config struct {
	// QueueBlocks bounds the hand-off queue, in blocks (default 64). The
	// freelist holds QueueBlocks+16 blocks so producers can keep filling
	// while the monitor drains.
	QueueBlocks int
	// BlockRows is each block's sample capacity (default 64 — one block
	// comfortably holds one micro-batch at the serving default MaxBatch=32).
	BlockRows int
	// EvalEvery runs a drift evaluation every this many folded samples
	// (default 2048). Smaller detects faster but spends more monitor CPU.
	EvalEvery int
	// SampleEvery folds only every Nth queued block (default 1 = fold every
	// block); the blocks in between are recycled with their samples counted
	// as dropped. It is the monitor's CPU governor: without it the consumer
	// goroutine folds at full traffic rate, and on a CPU-starved host that
	// work competes with the serving workers themselves. Skipping whole
	// blocks keeps the folded stream an unbiased batch-granular subsample
	// while bounding fold + evaluation cost to ~1/N of traffic.
	SampleEvery int
	// BaselineSize is the number of post-reference embeddings frozen as the
	// no-shift baseline reservoir (default 256).
	BaselineSize int
	// WindowSize is the sliding recent-embedding window scored against the
	// baseline (default 128).
	WindowSize int
	// Threshold is the normalized-score crossing level (default 2). The raw
	// detector statistic is divided by the self-calibrated null quantile δ,
	// so 1.0 means "at the null's (1-p) quantile" and 2 demands double it —
	// the headroom that keeps steady traffic from false-positive crossings.
	Threshold float64
	// Alpha is the EWMA weight for the fallback-rate and cache-bypass
	// sketches (default 0.05, per block).
	Alpha float64
	// HistoryLen bounds the ring of retained evaluations (default 256).
	HistoryLen int
	// Detector is the two-sample statistic scoring recent vs baseline
	// (default stats.MMDDistance).
	Detector stats.DistributionDistance
	// Calibrate configures the bootstrap null calibration of δ (default
	// stats.DefaultCalibrateConfig with PValue 0.02).
	Calibrate stats.CalibrateConfig
	// Seed drives the calibration resampling RNG (default 1).
	Seed uint64
}

// BindFlags registers the monitor's tuning flags on fs; parsing fs fills c.
// Zero leaves a field at its package default.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.EvalEvery, "monitor-eval-every", 0, "drift monitor: run a drift evaluation every this many folded samples (0 = package default)")
	fs.IntVar(&c.BaselineSize, "monitor-baseline", 0, "drift monitor: baseline reservoir size frozen as the no-shift reference (0 = package default)")
	fs.IntVar(&c.WindowSize, "monitor-window", 0, "drift monitor: sliding recent-embedding window scored against the baseline (0 = package default)")
	fs.Float64Var(&c.Threshold, "monitor-threshold", 0, "drift monitor: normalized-score crossing level (0 = package default)")
	fs.IntVar(&c.SampleEvery, "monitor-sample", 0, "drift monitor: fold only every Nth teed block — the monitor's CPU governor on saturated hosts (0 = package default, every block)")
	fs.IntVar(&c.Calibrate.Resamples, "monitor-resamples", 0, "drift monitor: bootstrap resamples calibrating the null threshold δ (0 = package default; each resample costs one detector pass over the baseline)")
}

func (c Config) withDefaults() Config {
	if c.QueueBlocks <= 0 {
		c.QueueBlocks = 64
	}
	if c.BlockRows <= 0 {
		c.BlockRows = 64
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 2048
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	if c.BaselineSize <= 0 {
		c.BaselineSize = 256
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 128
	}
	if c.Threshold <= 0 {
		c.Threshold = 2
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.05
	}
	if c.HistoryLen <= 0 {
		c.HistoryLen = 256
	}
	if c.Detector == nil {
		c.Detector = stats.MMDDistance{}
	}
	if c.Calibrate.Resamples <= 0 {
		c.Calibrate.Resamples = stats.DefaultCalibrateConfig().Resamples
	}
	if c.Calibrate.PValue <= 0 || c.Calibrate.PValue >= 1 {
		c.Calibrate.PValue = 0.02
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ExpertRef is one expert's training-time identity inside a Reference.
type ExpertRef struct {
	ID int
	// Memory is the expert's latent-memory signature; nil for experts
	// without one (fallback-only). The monitor clones it.
	Memory tensor.Vector
}

// Reference is the training-time state live traffic is scored against: the
// per-expert latent memories and the effective routing radius of one serving
// snapshot. Installing a reference resets every sketch — statistics gathered
// against one snapshot must not leak into the next.
type Reference struct {
	// SnapshotVersion identifies the snapshot the reference came from.
	SnapshotVersion int
	// Dim is the embedding dimensionality.
	Dim int
	// Epsilon is the calibrated reuse threshold; RouteEpsilon the effective
	// (scaled) radius routing compares squared distances against. Margin
	// ratios and per-expert drift scores are normalized by RouteEpsilon.
	Epsilon      float64
	RouteEpsilon float64
	Experts      []ExpertRef

	gen uint64
}

// marginBounds are the match-margin histogram bucket upper bounds, in units
// of dist/RouteEpsilon: ratio ≤ 1 means the request matched inside the
// radius; mass drifting toward and past 1 is routing confidence decaying.
var marginBounds = [...]float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 5}

// MarginBounds returns the margin-histogram bucket bounds (shared storage —
// read only).
func MarginBounds() []float64 { return marginBounds[:] }

// ExpertDrift is one expert's standing in an evaluation: how far the live
// embedding mean of traffic routed to it has moved from its latent memory,
// normalized by the effective routing radius (score ≥ 1 means the live mean
// sits outside the acceptance radius that routed those requests).
type ExpertDrift struct {
	ID       int     `json:"id"`
	Samples  int     `json:"samples"`
	MeanDist float64 `json:"meanDist"`
	Score    float64 `json:"score"`
}

// Evaluation is one drift scoring of the recent window against the baseline.
type Evaluation struct {
	Seq       int    `json:"seq"`
	UnixNanos int64  `json:"unixNanos"`
	Samples   uint64 `json:"samples"` // cumulative folded samples at eval time
	// TeedAt is the tee-clock position of the newest folded sample (the
	// producer-side cumulative counter when its block was offered). Use it
	// — not Samples — against watermarks read via Teed(): backpressure
	// drops make the folded clock lag the tee clock.
	TeedAt uint64 `json:"teedAt"`
	// Raw is the detector statistic, Delta the calibrated null quantile,
	// Score their ratio; Crossed reports Score ≥ the configured threshold.
	Raw             float64       `json:"raw"`
	Delta           float64       `json:"delta"`
	Score           float64       `json:"score"`
	Crossed         bool          `json:"crossed"`
	Err             string        `json:"err,omitempty"`
	SnapshotVersion int           `json:"snapshotVersion"`
	Experts         []ExpertDrift `json:"experts,omitempty"`
}

// Summary is the monitor's point-in-time aggregate view — what /v1/metrics
// renders and what the gateway's probe loop scrapes for fleet aggregation.
type Summary struct {
	SnapshotVersion  int           `json:"snapshotVersion"`
	Samples          uint64        `json:"samples"` // folded into sketches
	Teed             uint64        `json:"teed"`
	Dropped          uint64        `json:"dropped"`
	Stale            uint64        `json:"stale,omitempty"`    // pre-reference-change samples discarded
	Poisoned         uint64        `json:"poisoned,omitempty"` // NaN embeddings rejected
	BaselineFilled   bool          `json:"baselineFilled"`
	Calibrated       bool          `json:"calibrated"`
	CalibrationError string        `json:"calibrationError,omitempty"`
	Delta            float64       `json:"delta"`
	Threshold        float64       `json:"threshold"`
	Score            float64       `json:"score"` // latest evaluation's normalized score
	Crossed          bool          `json:"crossed"`
	Crossings        uint64        `json:"crossings"`
	Evals            uint64        `json:"evals"`
	FallbackRate     float64       `json:"fallbackRate"`
	CacheBypassShare float64       `json:"cacheBypassShare"`
	MarginMean       float64       `json:"marginMean"`
	MarginSum        float64       `json:"marginSum"`
	MarginBuckets    []uint64      `json:"marginBuckets,omitempty"`
	MaxExpertScore   float64       `json:"maxExpertScore"`
	MaxExpertID      int           `json:"maxExpertId"`
	Experts          []ExpertDrift `json:"experts,omitempty"`
}

// Monitor is the drift observability plane. Producers call Acquire / Block.Add
// / Offer from the serving hot path; everything else (sketches, reservoirs,
// evaluations) is owned by the single run goroutine, so no sketch state needs
// a lock.
type Monitor struct {
	cfg Config

	queue chan *Block
	free  chan *Block

	gen     atomic.Uint64
	ref     atomic.Pointer[Reference]
	teed    atomic.Uint64
	dropped atomic.Uint64
	// sampleSeq counts queued blocks for SampleEvery subsampling; touched
	// only by the run goroutine.
	sampleSeq uint64

	summary atomic.Pointer[Summary]

	mu    sync.Mutex // guards evals (ring) against handler reads
	evals []Evaluation

	refMu    sync.Mutex // serializes SetReference's freelist (re)fill
	allocDim int

	subMu      sync.Mutex // guards subs against Subscribe/notify/close
	subs       []chan Evaluation
	subsClosed bool

	flush     chan chan struct{}
	sketchReq chan chan *Sketches
	stop      chan struct{}
	done      chan struct{}
	stopOnce  sync.Once
}

// New starts a monitor. It is inert (Acquire returns nil, everything drops)
// until the first SetReference installs a scoring reference. Call Close to
// stop the goroutine.
func New(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:       cfg,
		queue:     make(chan *Block, cfg.QueueBlocks),
		free:      make(chan *Block, cfg.QueueBlocks+16),
		flush:     make(chan chan struct{}, 4),
		sketchReq: make(chan chan *Sketches, 4),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go m.run()
	return m
}

// Config returns the monitor's resolved configuration.
func (m *Monitor) Config() Config { return m.cfg }

// SetReference installs the scoring reference for a (new) serving snapshot
// and invalidates all prior sketch state: blocks acquired before the call
// are discarded as stale when they reach the monitor, and the baseline
// reservoir refills from post-reference traffic. Memories are cloned. Safe
// to call concurrently with producers.
func (m *Monitor) SetReference(ref Reference) {
	experts := make([]ExpertRef, len(ref.Experts))
	for i, e := range ref.Experts {
		experts[i] = ExpertRef{ID: e.ID}
		if e.Memory != nil {
			experts[i].Memory = e.Memory.Clone()
		}
	}
	ref.Experts = experts
	if ref.RouteEpsilon <= 0 {
		ref.RouteEpsilon = ref.Epsilon
	}
	m.refMu.Lock()
	if m.allocDim != ref.Dim {
		m.allocDim = ref.Dim
		for i := 0; i < cap(m.free); i++ {
			select {
			case m.free <- newBlock(ref.Dim, m.cfg.BlockRows):
			default:
			}
		}
	}
	ref.gen = m.gen.Add(1)
	m.ref.Store(&ref)
	m.refMu.Unlock()
}

// Summary returns the latest published aggregate view (an empty summary
// before any sample has been folded). The returned value is shared — read
// only.
func (m *Monitor) Summary() *Summary {
	if s := m.summary.Load(); s != nil {
		return s
	}
	return &Summary{Threshold: m.cfg.Threshold, MaxExpertID: -1}
}

// Evaluations returns up to n recent evaluations, newest last. n <= 0
// returns the whole retained ring. expert >= 0 filters each evaluation's
// per-expert entries to that expert ID (evaluations themselves are kept).
func (m *Monitor) Evaluations(n, expert int) []Evaluation {
	m.mu.Lock()
	defer m.mu.Unlock()
	evs := m.evals
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	out := make([]Evaluation, len(evs))
	copy(out, evs)
	if expert >= 0 {
		for i := range out {
			var kept []ExpertDrift
			for _, e := range out[i].Experts {
				if e.ID == expert {
					kept = append(kept, e)
				}
			}
			out[i].Experts = kept
		}
	}
	return out
}

// Flush folds every queued block and forces one evaluation (when the
// baseline is calibrated), then returns. Benchmarks call it after a load run
// so the final partial window is scored before detection latency is read.
func (m *Monitor) Flush() {
	ack := make(chan struct{})
	select {
	case m.flush <- ack:
		<-ack
	case <-m.done:
	}
}

// Close stops the monitor goroutine, folding whatever is already queued, and
// closes every evaluation subscription.
func (m *Monitor) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
	m.closeSubscribers()
}

// expertSketch is one expert's goroutine-owned online state.
type expertSketch struct {
	id     int
	memory tensor.Vector
	w      *stats.VecWelford
	mean   tensor.Vector // scratch for MeanInto
}

// sketchState is everything the run goroutine owns. It is rebuilt whenever
// the reference generation moves.
type sketchState struct {
	ref     *Reference
	global  *stats.VecWelford
	experts map[int]*expertSketch
	order   []int // expert IDs in reference order, for stable output

	marginHist  [len(marginBounds) + 1]uint64
	marginSum   float64
	marginCount uint64

	fallbackRate stats.EWMA
	bypassShare  stats.EWMA
	lastHits     uint64
	hitsSeeded   bool

	// baseline is frozen once full; recent is a ring over the newest
	// embeddings, with recentExperts carrying the routed expert per slot
	// (the sketch export needs it to attribute the live window). Both own
	// their storage (block buffers are recycled).
	baseline      []tensor.Vector
	recent        []tensor.Vector
	recentExperts []int32
	recentPos     int
	recentCount   int

	delta      float64
	calErr     string
	calibrated bool

	folded    uint64
	teedMark  uint64 // tee-clock position of the newest folded sample
	stale     uint64
	poisoned  uint64
	sinceEval int
	evalSeq   int
	crossings uint64
	lastEval  *Evaluation
	rng       *tensor.RNG
}

func (m *Monitor) newState(ref *Reference) *sketchState {
	st := &sketchState{
		ref:           ref,
		global:        stats.NewVecWelford(ref.Dim),
		experts:       make(map[int]*expertSketch, len(ref.Experts)),
		fallbackRate:  stats.EWMA{Alpha: m.cfg.Alpha},
		bypassShare:   stats.EWMA{Alpha: m.cfg.Alpha},
		baseline:      make([]tensor.Vector, 0, m.cfg.BaselineSize),
		recent:        make([]tensor.Vector, m.cfg.WindowSize),
		recentExperts: make([]int32, m.cfg.WindowSize),
		rng:           tensor.NewRNG(m.cfg.Seed),
	}
	for _, e := range ref.Experts {
		st.experts[e.ID] = &expertSketch{
			id:     e.ID,
			memory: e.Memory,
			w:      stats.NewVecWelford(ref.Dim),
			mean:   make(tensor.Vector, ref.Dim),
		}
		st.order = append(st.order, e.ID)
	}
	for i := range st.recent {
		st.recent[i] = make(tensor.Vector, ref.Dim)
	}
	return st
}

// run is the monitor goroutine: drain blocks, fold sketches, evaluate.
func (m *Monitor) run() {
	defer close(m.done)
	var st *sketchState
	for {
		select {
		case b := <-m.queue:
			st = m.fold(st, b)
		case ack := <-m.flush:
			st = m.syncRef(m.drain(st))
			if st != nil && st.calibrated && st.recentCount > 0 {
				m.evaluate(st)
				m.publish(st)
			}
			close(ack)
		case req := <-m.sketchReq:
			st = m.syncRef(m.drain(st))
			req <- m.export(st)
		case <-m.stop:
			m.drain(st)
			return
		}
	}
}

// syncRef discards sketch state built against a retired reference. Folding
// already does this lazily when the next block arrives; flushes and sketch
// harvests must do it eagerly, or a harvest right after a swap would export
// (and a flush would evaluate) sketches scored against the retired expert
// pool — the continual controller's window input must never mix generations.
func (m *Monitor) syncRef(st *sketchState) *sketchState {
	cur := m.ref.Load()
	if st == nil || cur == nil || st.ref.gen == cur.gen {
		return st
	}
	carry := st.stale
	st = m.newState(cur)
	st.stale = carry
	return st
}

// drain folds every block already queued, without blocking.
func (m *Monitor) drain(st *sketchState) *sketchState {
	for {
		select {
		case b := <-m.queue:
			st = m.fold(st, b)
		default:
			return st
		}
	}
}

// fold integrates one block into the sketches, rebuilding state first when
// the reference generation has moved.
func (m *Monitor) fold(st *sketchState, b *Block) *sketchState {
	if n := m.cfg.SampleEvery; n > 1 {
		m.sampleSeq++
		if m.sampleSeq%uint64(n) != 0 {
			m.dropped.Add(uint64(b.rows))
			m.release(b)
			return st
		}
	}
	cur := m.ref.Load()
	if cur == nil {
		m.release(b)
		return st
	}
	if st == nil || st.ref.gen != cur.gen {
		var carry uint64
		if st != nil {
			carry = st.stale
		}
		st = m.newState(cur)
		st.stale = carry
	}
	if b.gen != cur.gen || b.dim != cur.Dim {
		st.stale += uint64(b.rows)
		m.release(b)
		m.publish(st)
		return st
	}

	var fallbacks int
	for i := 0; i < b.rows; i++ {
		emb := b.row(i)
		if !st.global.Add(emb) {
			st.poisoned++
			continue
		}
		if es := st.experts[int(b.experts[i])]; es != nil {
			es.w.Add(emb)
		}
		ratio := b.dists[i] / st.ref.RouteEpsilon
		bi := len(marginBounds)
		for j, bound := range marginBounds {
			if ratio <= bound {
				bi = j
				break
			}
		}
		st.marginHist[bi]++
		st.marginSum += ratio
		st.marginCount++
		if !b.matched[i] {
			fallbacks++
		}
		if len(st.baseline) < cap(st.baseline) {
			st.baseline = append(st.baseline, append(tensor.Vector(nil), emb...))
			if len(st.baseline) == cap(st.baseline) {
				m.calibrate(st)
			}
		} else {
			copy(st.recent[st.recentPos], emb)
			st.recentExperts[st.recentPos] = b.experts[i]
			st.recentPos = (st.recentPos + 1) % len(st.recent)
			if st.recentCount < len(st.recent) {
				st.recentCount++
			}
		}
		st.folded++
		st.sinceEval++
	}
	if b.rows > 0 {
		st.fallbackRate.Observe(float64(fallbacks) / float64(b.rows))
		if st.hitsSeeded && b.hits >= st.lastHits {
			dh := float64(b.hits - st.lastHits)
			st.bypassShare.Observe(float64(b.rows) / (float64(b.rows) + dh))
		}
		st.lastHits = b.hits
		st.hitsSeeded = true
		st.teedMark = b.teedAt
	}
	m.release(b)

	if st.calibrated && st.sinceEval >= m.cfg.EvalEvery && st.recentCount == len(st.recent) {
		m.evaluate(st)
	}
	m.publish(st)
	return st
}

// calibrate bootstraps the null threshold δ from the frozen baseline: the
// (1-p) quantile of the detector statistic between random halves of the
// no-shift sample. Scores are reported as raw/δ, so the crossing threshold
// is dimensionless and detector-agnostic.
func (m *Monitor) calibrate(st *sketchState) {
	delta, err := stats.CalibrateThreshold(m.cfg.Detector, st.baseline, m.cfg.Calibrate, st.rng)
	if err != nil {
		st.calErr = err.Error()
		return
	}
	if delta <= 0 {
		// A degenerate null (identical embeddings) calibrates to zero;
		// fall back to an absolute floor so scores stay finite.
		delta = 1e-12
	}
	st.delta = delta
	st.calibrated = true
	st.calErr = ""
}

// evaluate scores the recent window against the baseline and each expert's
// live mean against its latent memory, appending to the evaluation ring.
func (m *Monitor) evaluate(st *sketchState) {
	st.sinceEval = 0
	st.evalSeq++
	ev := Evaluation{
		Seq:             st.evalSeq,
		UnixNanos:       time.Now().UnixNano(),
		Samples:         st.folded,
		TeedAt:          st.teedMark,
		Delta:           st.delta,
		SnapshotVersion: st.ref.SnapshotVersion,
	}
	recent := st.recent[:st.recentCount]
	raw, err := m.cfg.Detector.Distance(st.baseline, recent)
	if err != nil {
		ev.Err = fmt.Sprintf("detector: %v", err)
	} else {
		ev.Raw = raw
		ev.Score = raw / st.delta
		ev.Crossed = ev.Score >= m.cfg.Threshold
	}
	for _, id := range st.order {
		es := st.experts[id]
		if es.memory == nil || es.w.N() < 8 {
			continue
		}
		dist := stats.MeanEmbeddingMMD(es.w.MeanInto(es.mean), es.memory)
		ev.Experts = append(ev.Experts, ExpertDrift{
			ID:       id,
			Samples:  es.w.N(),
			MeanDist: dist,
			Score:    dist / st.ref.RouteEpsilon,
		})
	}
	if ev.Crossed {
		st.crossings++
	}
	st.lastEval = &ev

	m.mu.Lock()
	m.evals = append(m.evals, ev)
	if len(m.evals) > m.cfg.HistoryLen {
		m.evals = m.evals[len(m.evals)-m.cfg.HistoryLen:]
	}
	m.mu.Unlock()
	m.notifySubscribers(ev)
}

// publish snapshots the sketches into an immutable Summary for readers.
func (m *Monitor) publish(st *sketchState) {
	s := &Summary{
		SnapshotVersion:  st.ref.SnapshotVersion,
		Samples:          st.folded,
		Teed:             m.teed.Load(),
		Dropped:          m.dropped.Load(),
		Stale:            st.stale,
		Poisoned:         st.poisoned,
		BaselineFilled:   len(st.baseline) == cap(st.baseline),
		Calibrated:       st.calibrated,
		CalibrationError: st.calErr,
		Delta:            st.delta,
		Threshold:        m.cfg.Threshold,
		Crossings:        st.crossings,
		Evals:            uint64(st.evalSeq),
		FallbackRate:     st.fallbackRate.Value(),
		CacheBypassShare: st.bypassShare.Value(),
		MarginSum:        st.marginSum,
		MarginBuckets:    append([]uint64(nil), st.marginHist[:]...),
		MaxExpertID:      -1,
	}
	if st.marginCount > 0 {
		s.MarginMean = st.marginSum / float64(st.marginCount)
	}
	if ev := st.lastEval; ev != nil {
		s.Score = ev.Score
		s.Crossed = ev.Crossed
		s.Experts = append([]ExpertDrift(nil), ev.Experts...)
		for _, e := range ev.Experts {
			if e.Score > s.MaxExpertScore {
				s.MaxExpertScore = e.Score
				s.MaxExpertID = e.ID
			}
		}
	}
	m.summary.Store(s)
}
