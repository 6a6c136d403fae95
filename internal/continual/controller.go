// Package continual closes the ShiftEx loop at serving time: it connects the
// drift observability plane (internal/monitor) back to the adaptation
// pipeline (internal/shiftex) so a running server reacts to a detected regime
// change instead of only reporting it. A Controller subscribes to the
// monitor's drift evaluations; when a confirmed threshold crossing arrives it
// harvests the monitor's live sketches, drives a real adaptation window
// (detect → calibrate → assign → train → consolidate) through a Trainer, and
// — after a validation gate on held-back live embeddings — hot-swaps the
// resulting snapshot through the server's atomic pointer.
//
// The controller is built to be production-safe rather than merely
// demonstrative: triggers require Hysteresis consecutive crossed evaluations
// (one noisy evaluation never trains), a cooldown after every window absorbs
// the post-swap re-baselining transient, exactly one window is ever in flight
// (the run loop is the guard — triggers arriving mid-window coalesce into a
// suppressed count), promotion is gated on the candidate not regressing
// held-back live routing quality, and the aggregator's own atomic-window
// rollback backstops any mid-pipeline failure.
package continual

import (
	"errors"
	"flag"
	"strconv"
	"sync"
	"time"

	"repro/internal/httpapi"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/shiftex"
	"repro/internal/tensor"
)

// DriftSource is the controller's view of the drift monitor: a push feed of
// evaluations (the trigger signal) and a pull export of the live sketches
// (the window's input statistics). *monitor.Monitor implements it.
type DriftSource interface {
	Subscribe(buf int) <-chan monitor.Evaluation
	Sketches() *monitor.Sketches
}

var _ DriftSource = (*monitor.Monitor)(nil)

// Target is the serving side the controller adapts: the current snapshot
// (validation baseline and staleness check) and the hot-swap entry point.
// *serve.Server implements it.
type Target interface {
	Snapshot() *serve.Snapshot
	Swap(*serve.Snapshot) error
}

var _ Target = (*serve.Server)(nil)

// Candidate is one adaptation window's output, pending promotion.
type Candidate struct {
	// Snapshot is the candidate serving snapshot built from the post-window
	// aggregator state. Its Version is stamped only if Swap promotes it.
	Snapshot *serve.Snapshot
	// Report is the window report of the pipeline run that produced it.
	Report *shiftex.WindowReport
	// State is the post-window aggregator state; Promote folds it back into
	// the trainer so the next live window stacks on this one.
	State shiftex.State
	// Radii is the acceptance-radius overlay (expert ID → squared-distance
	// radius) already stamped on Snapshot — live-created experts carry a
	// radius calibrated on single-request embedding spread, which the
	// window-mean-calibrated route radius cannot cover. Promote carries it
	// forward so later windows re-stamp it.
	Radii map[int]float64
}

// Trainer runs one adaptation window from harvested live sketches. The
// controller calls AdaptWindow with exactly one window in flight; Promote is
// called only after the candidate passed validation and was swapped in.
type Trainer interface {
	AdaptWindow(sk *monitor.Sketches) (*Candidate, error)
	Promote(c *Candidate)
}

// ValidationConfig tunes the promotion gate: the candidate snapshot must not
// regress held-back live routing quality before it may replace the serving
// snapshot.
type ValidationConfig struct {
	// Disabled skips the gate (every completed window promotes).
	Disabled bool
	// MinSamples is the minimum number of held-back live embeddings needed
	// to judge a candidate; with fewer the gate abstains and promotes
	// (default 32).
	MinSamples int
	// Tolerance is how much the candidate's matched fraction may fall below
	// the serving snapshot's before the gate rejects (default 0.05).
	Tolerance float64
}

// Config tunes the adaptation controller. Zero values select the defaults.
type Config struct {
	// Hysteresis is how many consecutive crossed evaluations arm a trigger
	// (default 2): one noisy evaluation never starts a training window.
	Hysteresis int
	// Cooldown is the refractory period after a window — swapped, rejected,
	// or rolled back — during which triggers are suppressed (default 30s).
	// It absorbs the post-swap transient while the monitor re-baselines
	// against the new reference.
	Cooldown time.Duration
	// Validation tunes the promotion gate.
	Validation ValidationConfig
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// BindFlags registers the controller's tuning flags on fs; parsing fs fills
// c. Zero leaves a field at its package default.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Hysteresis, "adapt-hysteresis", 0, "continual: consecutive crossed drift evaluations required to arm a trigger (0 = package default, 2)")
	fs.DurationVar(&c.Cooldown, "adapt-cooldown", 0, "continual: refractory period after an adaptation window during which triggers are suppressed (0 = package default, 30s)")
	fs.BoolFunc("adapt-validation", "continual: gate promotion on the candidate snapshot not regressing held-back live routing quality (default true)", func(v string) error {
		on, err := strconv.ParseBool(v)
		c.Validation.Disabled = !on
		return err
	})
	fs.IntVar(&c.Validation.MinSamples, "adapt-validation-samples", 0, "continual: minimum held-back live embeddings the validation gate needs to judge a candidate (0 = package default, 32)")
}

func (c Config) withDefaults() Config {
	if c.Hysteresis <= 0 {
		c.Hysteresis = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Validation.MinSamples <= 0 {
		c.Validation.MinSamples = 32
	}
	if c.Validation.Tolerance <= 0 {
		c.Validation.Tolerance = 0.05
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Phase names, as surfaced in /v1/state and the shiftex_continual_phase
// metric family.
const (
	PhaseIdle       = "idle"
	PhaseAdapting   = "adapting"
	PhaseValidating = "validating"
	PhaseCooldown   = "cooldown"
)

// Window outcomes, as surfaced in lastWindow.outcome and the
// shiftex_continual_windows_total counter family.
const (
	OutcomeSwapped    = "swapped"
	OutcomeRejected   = "rejected"
	OutcomeRolledBack = "rolled-back"
)

// Controller is the live continual-adaptation state machine. Create with
// New, arm with Start, stop with Close. It implements serve.AdaptReporter,
// so AttachAdaptation surfaces its state on /v1/state, /v1/metrics, and
// /v1/debug/adapt.
type Controller struct {
	src DriftSource
	tgt Target
	tr  Trainer
	cfg Config

	evals <-chan monitor.Evaluation
	stop  chan struct{}
	done  chan struct{}

	mu sync.Mutex
	st status

	startOnce sync.Once
	closeOnce sync.Once
}

// status is the mutable state-machine record behind ContinualState. The run
// loop writes it under mu; HTTP handlers read it under mu.
type status struct {
	phase        string
	consecutive  int
	cooldownTill time.Time

	triggers   uint64
	suppressed uint64
	completed  uint64
	rolledBack uint64
	rejected   uint64

	lastTrigger *httpapi.ContinualTrigger
	lastWindow  *httpapi.ContinualWindow
}

var _ serve.AdaptReporter = (*Controller)(nil)

// New builds a controller over the given drift source, serving target, and
// trainer. Start must be called to arm it.
func New(src DriftSource, tgt Target, tr Trainer, cfg Config) (*Controller, error) {
	if src == nil || tgt == nil || tr == nil {
		return nil, errors.New("continual: nil drift source, target, or trainer")
	}
	return &Controller{
		src:  src,
		tgt:  tgt,
		tr:   tr,
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Config returns the configuration in effect, defaults resolved.
func (c *Controller) Config() Config { return c.cfg }

// Start subscribes to the drift source and launches the run loop. Calling it
// more than once is a no-op.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		c.evals = c.src.Subscribe(16)
		c.mu.Lock()
		c.st.phase = PhaseIdle
		c.mu.Unlock()
		go c.run()
	})
}

// Close stops the run loop and waits for it to exit. A window already in
// flight completes first (the aggregator's rollback keeps it atomic either
// way). Safe to call more than once.
func (c *Controller) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	if c.evals != nil {
		<-c.done
	}
}

// run is the controller goroutine: the single consumer of the evaluation
// feed, and — because windows run synchronously on it — the structural
// guarantee that at most one adaptation window is ever in flight.
func (c *Controller) run() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case ev, ok := <-c.evals:
			if !ok {
				return
			}
			if c.observe(ev) {
				c.adapt()
				c.drainCoalesced()
			}
		}
	}
}

// observe folds one evaluation into the trigger state and reports whether it
// armed a window.
func (c *Controller) observe(ev monitor.Evaluation) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()

	// Cooldown expiry is checked on evaluation arrival — the controller has
	// no timers; nothing can happen between evaluations anyway.
	if c.st.phase == PhaseCooldown && !now.Before(c.st.cooldownTill) {
		c.st.phase = PhaseIdle
		c.st.consecutive = 0
	}

	// Evaluations from a snapshot no longer serving (queued across a swap)
	// must not count: they scored traffic against retired memories.
	if cur := c.tgt.Snapshot(); cur == nil || ev.SnapshotVersion != cur.Version {
		c.st.consecutive = 0
		return false
	}
	if ev.Err != "" || !ev.Crossed {
		c.st.consecutive = 0
		return false
	}

	if c.st.phase == PhaseCooldown {
		// A crossing that would have triggered, absorbed by the refractory
		// period.
		c.st.consecutive++
		if c.st.consecutive >= c.cfg.Hysteresis {
			c.st.suppressed++
			c.st.consecutive = 0
		}
		return false
	}

	c.st.consecutive++
	if c.st.consecutive < c.cfg.Hysteresis {
		return false
	}
	c.st.consecutive = 0
	c.st.triggers++
	c.st.phase = PhaseAdapting
	c.st.lastTrigger = &httpapi.ContinualTrigger{
		Seq:             ev.Seq,
		Score:           ev.Score,
		TeedAt:          ev.TeedAt,
		UnixNanos:       ev.UnixNanos,
		SnapshotVersion: ev.SnapshotVersion,
	}
	return true
}

// adapt runs one full window: harvest sketches, train, validate, promote.
// Any failure is recorded and the controller enters cooldown regardless of
// outcome — a failing pipeline must not spin-train.
func (c *Controller) adapt() {
	start := c.cfg.Now()
	win := &httpapi.ContinualWindow{StartedUnixNanos: start.UnixNano()}
	defer func() {
		win.DurationMs = float64(c.cfg.Now().Sub(start).Microseconds()) / 1e3
		c.mu.Lock()
		c.st.lastWindow = win
		c.st.phase = PhaseCooldown
		c.st.cooldownTill = c.cfg.Now().Add(c.cfg.Cooldown)
		c.st.consecutive = 0
		c.mu.Unlock()
	}()

	fail := func(err error) {
		win.Outcome = OutcomeRolledBack
		win.Error = err.Error()
		c.mu.Lock()
		c.st.rolledBack++
		c.mu.Unlock()
	}

	sk := c.src.Sketches()
	if sk == nil || len(sk.Recent) == 0 {
		fail(errors.New("continual: no live sketches to adapt from"))
		return
	}
	cand, err := c.tr.AdaptWindow(sk)
	if err != nil {
		fail(err)
		return
	}
	win.Window = cand.Report.Window
	win.ShiftedParties = cand.Report.ShiftedCov
	win.NewExperts = cand.Report.NewExperts
	win.Merged = cand.Report.Merged
	win.ExpertsAfter = cand.Report.ExpertsAfter

	c.setPhase(PhaseValidating)
	cur := c.tgt.Snapshot()
	val := validate(cur, cand.Snapshot, sk.Recent, cur.RouteEpsilon(), c.cfg.Validation)
	win.Validation = val
	if !val.Passed {
		win.Outcome = OutcomeRejected
		c.mu.Lock()
		c.st.rejected++
		c.mu.Unlock()
		return
	}

	if err := c.tgt.Swap(cand.Snapshot); err != nil {
		fail(err)
		return
	}
	// The swap re-referenced the monitor (serve.Swap → SetReference), so the
	// sketches re-baseline against the new expert pool: a successfully
	// handled shift does not keep crossing the threshold forever.
	c.tr.Promote(cand)
	win.Outcome = OutcomeSwapped
	win.SwappedVersion = cand.Snapshot.Version
	c.mu.Lock()
	c.st.completed++
	c.mu.Unlock()
}

// drainCoalesced empties evaluations that queued while a window was in
// flight. Crossed ones are triggers that coalesced into the window already
// running; they count as suppressed, never as new windows.
func (c *Controller) drainCoalesced() {
	for {
		select {
		case ev, ok := <-c.evals:
			if !ok {
				return
			}
			if ev.Crossed && ev.Err == "" {
				c.mu.Lock()
				c.st.suppressed++
				c.mu.Unlock()
			}
		default:
			return
		}
	}
}

func (c *Controller) setPhase(p string) {
	c.mu.Lock()
	c.st.phase = p
	c.mu.Unlock()
}

// ContinualState renders the state machine for /v1/state, /v1/debug/adapt,
// and the shiftex_continual_* metric families (serve.AdaptReporter).
func (c *Controller) ContinualState() *httpapi.ContinualState {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	phase := c.st.phase
	if phase == "" {
		phase = PhaseIdle
	}
	remaining := 0.0
	if phase == PhaseCooldown {
		if d := c.st.cooldownTill.Sub(now); d > 0 {
			remaining = d.Seconds()
		} else {
			phase = PhaseIdle
		}
	}
	out := &httpapi.ContinualState{
		Phase:                    phase,
		ConsecutiveCrossed:       c.st.consecutive,
		Hysteresis:               c.cfg.Hysteresis,
		CooldownSeconds:          c.cfg.Cooldown.Seconds(),
		CooldownRemainingSeconds: remaining,
		Triggers:                 c.st.triggers,
		TriggersSuppressed:       c.st.suppressed,
		WindowsCompleted:         c.st.completed,
		WindowsRolledBack:        c.st.rolledBack,
		WindowsRejected:          c.st.rejected,
	}
	if snap := c.tgt.Snapshot(); snap != nil {
		out.SnapshotVersion = snap.Version
	}
	if c.st.lastTrigger != nil {
		t := *c.st.lastTrigger
		out.LastTrigger = &t
	}
	if c.st.lastWindow != nil {
		w := *c.st.lastWindow
		if c.st.lastWindow.Validation != nil {
			v := *c.st.lastWindow.Validation
			w.Validation = &v
		}
		out.LastWindow = &w
	}
	return out
}

// validate scores candidate against serving snapshot on the held-back live
// embeddings under the serving acceptance radius: the candidate must not
// regress the matched fraction by more than the configured tolerance. With
// fewer than MinSamples embeddings the gate abstains (promotes) — it cannot
// judge, and the aggregator's rollback already guarantees the candidate is a
// coherent state.
func validate(cur, cand *serve.Snapshot, sample []tensor.Vector, eps float64, cfg ValidationConfig) *httpapi.ContinualValidation {
	v := &httpapi.ContinualValidation{Samples: len(sample)}
	if cfg.Disabled || len(sample) < cfg.MinSamples {
		v.Passed = true
		return v
	}
	score := func(s *serve.Snapshot) (matched, meanMargin float64) {
		var hits int
		var sum float64
		var finite int
		for _, emb := range sample {
			_, dist, ok := s.MatchEmbedding(emb, eps)
			if ok {
				hits++
			}
			if dist < 1e300 { // +Inf means no memory to match at all
				sum += dist
				finite++
			}
		}
		matched = float64(hits) / float64(len(sample))
		if finite > 0 && eps > 0 {
			meanMargin = (sum / float64(finite)) / eps
		}
		return matched, meanMargin
	}
	v.BaselineMatched, v.BaselineMeanMargin = score(cur)
	v.CandidateMatched, v.CandidateMeanMargin = score(cand)
	v.Passed = v.CandidateMatched+cfg.Tolerance >= v.BaselineMatched
	return v
}
