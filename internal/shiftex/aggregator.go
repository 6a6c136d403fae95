package shiftex

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/detect"
	"repro/internal/facility"
	"repro/internal/federation"
	"repro/internal/fl"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config parameterizes the ShiftEx aggregator (Algorithm 2).
type Config struct {
	// BootstrapRounds is the number of FL rounds in window 0.
	BootstrapRounds int
	// RoundsPerWindow is the number of FL rounds in each later window.
	RoundsPerWindow int
	// ParticipantsPerRound is the per-expert cohort sample size per round.
	ParticipantsPerRound int
	// Train is the local-training configuration sent to parties.
	Train fl.TrainConfig
	// Epsilon is the latent-memory reuse threshold; 0 means auto-calibrate
	// from window-0 embedding dispersion.
	Epsilon float64
	// Tau is the consolidation cosine-similarity threshold (§5.2.5).
	Tau float64
	// Gamma is the minimum cluster size for federated training; smaller
	// clusters fall back to local fine-tuning (Algorithm 2, line 29).
	Gamma int
	// MaxClusters bounds the k-means sweep when clustering shifted
	// parties; 0 means 6.
	MaxClusters int
	// MemoryBeta is the latent-memory EMA coefficient.
	MemoryBeta float64
	// LambdaNewCost is the Eq. 2 expert-creation coefficient, expressed
	// relative to the reuse threshold: the effective flat cost of a new
	// expert is LambdaNewCost · ε · (mean cluster weight), so creation is
	// priced at the covariate mismatch a typical cluster would tolerate
	// before reuse becomes infeasible. MuLabel is the label-imbalance
	// weight μ.
	LambdaNewCost float64
	MuLabel       float64
	// CapacityMax is U_max (0 = unlimited).
	CapacityMax int
	// Calibration configures bootstrap threshold estimation.
	Calibration stats.CalibrateConfig

	// Ablation switches (all false in the full system).
	DisableMemory        bool // every shifted cluster spawns a new expert
	DisableConsolidation bool // never merge experts
	DisableFLIPS         bool // uniform random participant selection
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		BootstrapRounds:      15,
		RoundsPerWindow:      15,
		ParticipantsPerRound: 10,
		Train:                fl.TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.02, Momentum: 0.9},
		Tau:                  0.995,
		Gamma:                2,
		MaxClusters:          6,
		MemoryBeta:           0.7,
		LambdaNewCost:        1,
		MuLabel:              0.3,
		Calibration:          stats.DefaultCalibrateConfig(),
	}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	switch {
	case c.BootstrapRounds <= 0 || c.RoundsPerWindow <= 0:
		return fmt.Errorf("shiftex: rounds must be positive (bootstrap=%d window=%d)", c.BootstrapRounds, c.RoundsPerWindow)
	case c.ParticipantsPerRound <= 0:
		return fmt.Errorf("shiftex: participants per round must be positive, got %d", c.ParticipantsPerRound)
	case c.Tau <= 0 || c.Tau > 1:
		return fmt.Errorf("shiftex: tau must be in (0,1], got %g", c.Tau)
	case c.Gamma < 1:
		return fmt.Errorf("shiftex: gamma must be >=1, got %d", c.Gamma)
	case c.MemoryBeta < 0 || c.MemoryBeta >= 1:
		return fmt.Errorf("shiftex: memory beta must be in [0,1), got %g", c.MemoryBeta)
	case c.Epsilon < 0:
		return fmt.Errorf("shiftex: epsilon must be non-negative, got %g", c.Epsilon)
	}
	return c.Train.Validate()
}

// Fleet is the party substrate Algorithm 2 drives. The in-process
// *federation.Federation satisfies it directly; internal/service provides a
// transport-backed implementation that reaches parties in other processes.
// Everything the aggregator decides is a function of the Fleet's answers
// plus its own seeded RNG, so two Fleets that answer identically (same
// data, same per-party seed derivation) yield bit-identical decisions.
type Fleet interface {
	Arch() []int
	NumParties() int
	PartyIDs() []int
	InitialParams() (tensor.Vector, error)
	SetWindow(w int) error
	// Round runs one federated round from params on the selected parties and
	// returns the aggregate with the individual updates. The aggregate is
	// the caller's to keep; an update's Params is valid only until this
	// fleet's next Round, which may reuse its memory (service.Fleet does).
	// A party call the fleet gave up on may still be running and reading
	// params after Round returns: never write to a vector that was passed
	// to Round — replace it, as the aggregator does with an expert's.
	Round(params tensor.Vector, selected []int, cfg fl.TrainConfig) (tensor.Vector, []fl.Update, error)
	// StatsAll collects Algorithm-1 statistics from every party through
	// the given encoder parameters, in party-ID order. Parties that fail
	// to report are skipped; an error is returned only when nobody
	// reports. Batching lets a transport-backed fleet fan the collection
	// out — it is the hot step of every post-bootstrap window.
	StatsAll(params tensor.Vector) ([]detect.PartyStats, error)
	EvalAssignment(paramsFor func(partyID int) tensor.Vector) (float64, error)
	LocalFineTune(partyID int, params tensor.Vector, cfg fl.TrainConfig) (tensor.Vector, error)
	PartyHists() []stats.Histogram
}

var _ Fleet = (*federation.Federation)(nil)

// WindowReport summarizes one window's adaptation.
type WindowReport struct {
	Window        int
	Trace         []float64 // per-round mean accuracy across parties
	ShiftedCov    int       // parties flagged for covariate shift
	ShiftedLabel  int       // parties flagged for label shift
	ExpertsBefore int
	ExpertsAfter  int
	NewExperts    int
	Merged        int
	// Distribution maps expert ID to the number of assigned parties at
	// window end (Figures 7-8).
	Distribution map[int]int
}

// Aggregator is the ShiftEx coordinator: the driver of the adaptation
// pipeline. Every adaptation decision is delegated to the stages of its
// adapt.Policy — detection, calibration, assignment solving, training
// planning, and consolidation — while the aggregator owns the state those
// stages act on (expert registry, party assignment, thresholds, RNG).
type Aggregator struct {
	cfg        Config
	policy     *adapt.Policy
	registry   *Registry
	assignment map[int]int // party -> expert ID
	// personalized holds locally fine-tuned parameter overrides for
	// parties in small clusters.
	personalized map[int]tensor.Vector
	thresholds   stats.Thresholds
	epsilon      float64
	bootParams   tensor.Vector // θ0 clone source for new experts
	// encoder is the frozen post-bootstrap model used for all embedding
	// computations. Freezing it keeps embeddings comparable across
	// windows and across experts, which is what makes latent-memory
	// matching well defined (the paper lists "reliance on frozen
	// encoders" among its assumptions, §9).
	encoder tensor.Vector
	rng     *tensor.RNG
	tracer  *telemetry.Tracer
}

// SetTracer attaches a tracer: each window then records an adapt.window
// (or adapt.bootstrap) root span with one child per pipeline stage, plus
// an adapt.rollback span when a failed window restores the saved state.
// Call before driving windows; the aggregator is single-threaded per
// window so no locking is needed.
func (a *Aggregator) SetTracer(t *telemetry.Tracer) { a.tracer = t }

// startStage opens a stage span and publishes it as the tracer's active
// context, so the ctx-less Trainer interface (the fl wire) parents its
// fl.<kind> spans under the running stage.
func (a *Aggregator) startStage(parent *telemetry.Span, name string) *telemetry.Span {
	if a.tracer == nil {
		return nil
	}
	var s *telemetry.Span
	if parent == nil {
		s = a.tracer.StartRoot(name)
	} else {
		s = parent.Child(name)
	}
	a.tracer.SetActive(s.Context())
	return s
}

// endStage closes a stage span and restores the window root as the
// active context (or clears it when the root itself ends).
func (a *Aggregator) endStage(s, root *telemetry.Span, err error) {
	if s == nil {
		return
	}
	s.EndErr(err)
	if root != nil && s != root {
		a.tracer.SetActive(root.Context())
	} else {
		a.tracer.ClearActive()
	}
}

var _ federation.Technique = (*Aggregator)(nil)

// New builds a ShiftEx aggregator running the default adaptation policy
// (the paper's Algorithm 2).
func New(cfg Config, seed uint64) (*Aggregator, error) {
	return NewWithPolicy(cfg, nil, seed)
}

// NewWithPolicy builds a ShiftEx aggregator running the given adaptation
// policy; nil resolves to adapt.DefaultPolicy(). The policy must validate
// (every stage present). The cfg ablation switches still apply on top of
// any policy: DisableFLIPS forces uniform selection and
// DisableConsolidation skips the consolidation stage entirely.
func NewWithPolicy(cfg Config, policy *adapt.Policy, seed uint64) (*Aggregator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		policy = adapt.DefaultPolicy()
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	reg, err := NewRegistry(cfg.MemoryBeta)
	if err != nil {
		return nil, err
	}
	return &Aggregator{
		cfg:          cfg,
		policy:       policy,
		registry:     reg,
		assignment:   make(map[int]int),
		personalized: make(map[int]tensor.Vector),
		epsilon:      cfg.Epsilon,
		rng:          tensor.NewRNG(seed),
	}, nil
}

// Name implements federation.Technique.
func (a *Aggregator) Name() string { return "shiftex" }

// PolicyName returns the name of the adaptation policy the aggregator
// runs; it is recorded in service checkpoints and serving snapshots.
func (a *Aggregator) PolicyName() string { return a.policy.Name }

// Assignments implements federation.Technique.
func (a *Aggregator) Assignments() map[int]int {
	out := make(map[int]int, len(a.assignment))
	for k, v := range a.assignment {
		out[k] = v
	}
	return out
}

// Registry exposes the expert pool (read-mostly; used by reports/tests).
func (a *Aggregator) Registry() *Registry { return a.registry }

// Thresholds returns the calibrated detection thresholds (valid after
// window 0).
func (a *Aggregator) Thresholds() stats.Thresholds { return a.thresholds }

// Epsilon returns the effective latent-memory reuse threshold (valid after
// window 0 when auto-calibrated).
func (a *Aggregator) Epsilon() float64 { return a.epsilon }

// paramsFor returns the parameters party p currently uses for inference:
// its personalized fine-tune if present, else its assigned expert.
func (a *Aggregator) paramsFor(p int) tensor.Vector {
	if pp, ok := a.personalized[p]; ok {
		return pp
	}
	id, ok := a.assignment[p]
	if !ok {
		return nil
	}
	e, ok := a.registry.Get(id)
	if !ok {
		return nil
	}
	return e.Params
}

// RunWindow implements federation.Technique: window 0 bootstraps and
// calibrates; later windows run shift detection, expert assignment,
// training, and consolidation.
func (a *Aggregator) RunWindow(f *federation.Federation, w int) ([]float64, error) {
	if err := f.SetWindow(w); err != nil {
		return nil, err
	}
	if w == 0 {
		rep, err := a.bootstrap(f)
		if err != nil {
			return nil, err
		}
		return rep.Trace, nil
	}
	rep, err := a.AdaptWindow(f, w)
	if err != nil {
		return nil, err
	}
	return rep.Trace, nil
}

// Bootstrap runs window 0 and returns the full report.
func (a *Aggregator) Bootstrap(f Fleet) (*WindowReport, error) {
	if err := f.SetWindow(0); err != nil {
		return nil, err
	}
	return a.bootstrap(f)
}

// bootstrap wraps runBootstrap with the pipeline's atomicity guarantee:
// if any stage fails, the aggregator rolls back to its pre-window state
// (including the RNG position) so the caller can retry or shut down with
// nothing half-applied. Fleet-side effects (detector observations already
// consumed) are outside the aggregator and are not rolled back.
func (a *Aggregator) bootstrap(f Fleet) (*WindowReport, error) {
	root := a.startStage(nil, "adapt.bootstrap")
	saved := a.ExportState()
	rep, err := a.runBootstrap(f, root)
	if err != nil {
		rb := a.startStage(root, "adapt.rollback")
		rerr := a.restoreState(saved)
		a.endStage(rb, root, rerr)
		a.endStage(root, root, err)
		if rerr != nil {
			return nil, errors.Join(err, fmt.Errorf("shiftex: rollback after bootstrap failure: %w", rerr))
		}
		return nil, err
	}
	a.endStage(root, root, nil)
	return rep, nil
}

func (a *Aggregator) runBootstrap(f Fleet, root *telemetry.Span) (*WindowReport, error) {
	if a.registry.Len() != 0 {
		return nil, errors.New("shiftex: bootstrap must run on an empty registry")
	}
	init, err := f.InitialParams()
	if err != nil {
		return nil, err
	}
	a.bootParams = init.Clone()
	e0 := a.registry.Create(init, nil)
	for _, p := range f.PartyIDs() {
		a.assignment[p] = e0.ID
	}

	// Train the initial global model with FLIPS participant selection
	// (§4.1).
	st := a.startStage(root, "adapt.train")
	st.SetAttrInt("rounds", int64(a.cfg.BootstrapRounds))
	trace, err := a.trainExperts(f, map[int][]int{e0.ID: f.PartyIDs()}, a.cfg.BootstrapRounds)
	a.endStage(st, root, err)
	if err != nil {
		return nil, fmt.Errorf("bootstrap training: %w", err)
	}

	// Freeze the trained bootstrap model as the shared encoder, observe
	// window 0 through it, and calibrate thresholds and ε from the
	// resulting null statistics.
	a.encoder = e0.Params.Clone()
	st = a.startStage(root, "adapt.calibrate")
	anchor, err := a.observeAll(f)
	if err != nil {
		a.endStage(st, root, err)
		return nil, fmt.Errorf("bootstrap anchor: %w", err)
	}
	th, eps, err := a.policy.Calibrator.Calibrate(anchor, a.cfg.Calibration, a.cfg.Epsilon, a.rng)
	if err != nil {
		a.endStage(st, root, err)
		return nil, fmt.Errorf("bootstrap calibration: %w", err)
	}
	a.thresholds, a.epsilon = th, eps
	if err := a.updateMemories(anchor); err != nil {
		a.endStage(st, root, err)
		return nil, err
	}
	a.endStage(st, root, nil)

	return &WindowReport{
		Window:       0,
		Trace:        trace,
		ExpertsAfter: a.registry.Len(),
		Distribution: Snapshot(a.assignment),
	}, nil
}

// observeAll collects Algorithm-1 statistics from every party through the
// frozen encoder, keeping all embedding statistics in one comparable space.
// Parties that fail to report (dropped out, empty window) are skipped —
// they are treated as stable for this window, which is the safe default in
// a live federation; an error is returned only when nobody reports.
func (a *Aggregator) observeAll(f Fleet) ([]detect.PartyStats, error) {
	if a.encoder == nil {
		return nil, errors.New("shiftex: encoder not initialized (bootstrap first)")
	}
	return f.StatsAll(a.encoder)
}

// AdaptWindow runs the adaptation pipeline for one post-bootstrap window
// and returns the full report. The federation must already be positioned
// at window w. If any stage fails mid-window, the aggregator rolls back to
// its pre-window state (registry, assignments, personalization, RNG — see
// restoreState), so a failed window leaves nothing half-applied and the
// caller can retry or resume from the last checkpoint.
func (a *Aggregator) AdaptWindow(f Fleet, w int) (*WindowReport, error) {
	if a.registry.Len() == 0 {
		return nil, ErrNoExperts
	}
	root := a.startStage(nil, "adapt.window")
	root.SetAttrInt("window", int64(w))
	saved := a.ExportState()
	rep, err := a.runAdaptWindow(f, w, root)
	if err != nil {
		rb := a.startStage(root, "adapt.rollback")
		rerr := a.restoreState(saved)
		a.endStage(rb, root, rerr)
		a.endStage(root, root, err)
		if rerr != nil {
			return nil, errors.Join(err, fmt.Errorf("shiftex: rollback after window %d failure: %w", w, rerr))
		}
		return nil, err
	}
	a.endStage(root, root, nil)
	return rep, nil
}

// runAdaptWindow is Algorithm 2 for one window, expressed over the
// policy's stages.
func (a *Aggregator) runAdaptWindow(f Fleet, w int, root *telemetry.Span) (*WindowReport, error) {
	rep := &WindowReport{Window: w, ExpertsBefore: a.registry.Len()}

	// Lines 4-7: receive statistics, detect shifted parties.
	stage := a.startStage(root, "adapt.detect")
	allStats, err := a.observeAll(f)
	if err != nil {
		a.endStage(stage, root, err)
		return nil, err
	}
	statByParty := make(map[int]detect.PartyStats, len(allStats))
	var shifted []int
	for _, st := range allStats {
		statByParty[st.PartyID] = st
		cov, lab := a.policy.Detector.Detect(st, a.thresholds)
		if cov {
			rep.ShiftedCov++
		}
		if lab {
			rep.ShiftedLabel++
		}
		if cov || lab {
			shifted = append(shifted, st.PartyID)
		}
	}
	stage.SetAttrInt("shifted", int64(len(shifted)))
	stage.SetAttrInt("shifted.cov", int64(rep.ShiftedCov))
	stage.SetAttrInt("shifted.label", int64(rep.ShiftedLabel))
	a.endStage(stage, root, nil)

	// Lines 8-31: cluster shifted parties and (re)assign experts.
	if len(shifted) > 0 {
		stage = a.startStage(root, "adapt.assign")
		stage.SetAttrInt("parties", int64(len(shifted)))
		err := a.reassign(f, shifted, statByParty, rep)
		stage.SetAttrInt("experts.new", int64(rep.NewExperts))
		a.endStage(stage, root, err)
		if err != nil {
			return nil, err
		}
	}

	// Train every expert on its current cohort.
	cohorts := a.cohorts(f)
	stage = a.startStage(root, "adapt.train")
	stage.SetAttrInt("experts", int64(len(cohorts)))
	stage.SetAttrInt("rounds", int64(a.cfg.RoundsPerWindow))
	trace, err := a.trainExperts(f, cohorts, a.cfg.RoundsPerWindow)
	a.endStage(stage, root, err)
	if err != nil {
		return nil, err
	}
	rep.Trace = trace

	// Refresh latent memories with this window's embeddings (the frozen
	// encoder makes the window-start statistics authoritative — training
	// does not move the embedding space).
	if err := a.updateMemories(allStats); err != nil {
		return nil, err
	}

	// Lines 33-40: consolidation.
	if !a.cfg.DisableConsolidation {
		stage = a.startStage(root, "adapt.consolidate")
		merged, err := a.consolidate(f)
		stage.SetAttrInt("merged", int64(merged))
		a.endStage(stage, root, err)
		if err != nil {
			return nil, err
		}
		rep.Merged = merged
	}

	rep.ExpertsAfter = a.registry.Len()
	rep.Distribution = Snapshot(a.assignment)
	return rep, nil
}

// reassign clusters the shifted parties and routes each cluster to an
// existing or new expert via the facility-location solver (§5.1-5.2).
func (a *Aggregator) reassign(f Fleet, shifted []int, statByParty map[int]detect.PartyStats, rep *WindowReport) error {
	points := make([]tensor.Vector, len(shifted))
	for i, p := range shifted {
		points[i] = statByParty[p].MeanEmbedding
	}
	maxK := a.cfg.MaxClusters
	if maxK <= 0 {
		maxK = 6
	}
	res, err := cluster.SelectK(points, maxK, cluster.Config{}, a.rng)
	if err != nil {
		return fmt.Errorf("cluster shifted parties: %w", err)
	}

	// Split clusters into federated (>=γ) and small ones.
	type group struct {
		parties  []int
		centroid tensor.Vector
		hist     stats.Histogram
	}
	var fedGroups []group
	var smallParties []int
	for c := 0; c < res.K(); c++ {
		var members []int
		for i, assigned := range res.Assignments {
			if assigned == c {
				members = append(members, shifted[i])
			}
		}
		if len(members) == 0 {
			continue
		}
		if len(members) < a.cfg.Gamma {
			smallParties = append(smallParties, members...)
			continue
		}
		hs := make([]stats.Histogram, len(members))
		counts := make([]int, len(members))
		for i, p := range members {
			hs[i] = statByParty[p].LabelHist
			counts[i] = statByParty[p].NumSamples
		}
		hist, err := stats.MergeHistograms(hs, counts)
		if err != nil {
			return err
		}
		fedGroups = append(fedGroups, group{parties: members, centroid: res.Centroids[c], hist: hist})
	}

	if len(fedGroups) > 0 {
		// Facility-location assignment of clusters to experts (Eq. 2).
		clients := make([]facility.Client, len(fedGroups))
		for i, g := range fedGroups {
			clients[i] = facility.Client{
				ID:        i,
				Embedding: g.centroid,
				LabelHist: g.hist,
				Weight:    float64(len(g.parties)),
			}
		}
		var existing []facility.Facility
		var existingIDs []int
		if !a.cfg.DisableMemory {
			for _, e := range a.registry.Experts() {
				if e.Memory == nil {
					continue
				}
				existing = append(existing, facility.Facility{ID: e.ID, Signature: e.Memory})
				existingIDs = append(existingIDs, e.ID)
			}
		}
		var meanWeight float64
		for _, c := range clients {
			meanWeight += c.Weight
		}
		meanWeight /= float64(len(clients))
		inst := &facility.Instance{
			Clients:     clients,
			Existing:    existing,
			NewCost:     a.cfg.LambdaNewCost * a.epsilon * meanWeight,
			LabelWeight: a.cfg.MuLabel,
			CapacityMax: a.cfg.CapacityMax,
			Epsilon:     a.epsilon,
		}
		sol, err := a.policy.Solver.Solve(inst)
		if err != nil {
			return fmt.Errorf("facility assignment: %w", err)
		}
		// Materialize the assignment: map slots to expert IDs, creating
		// new experts for new slots. New experts are warm-started from the
		// nearest existing expert's parameters (§5.2.1: clusters fine-tune
		// experts rather than train from scratch), falling back to θ0.
		slotExpert := make(map[int]int)
		for gi, slot := range sol.Slots {
			expertID, ok := slotExpert[slot]
			if !ok {
				if slot < len(existing) {
					expertID = existingIDs[slot]
				} else {
					seed := a.bootParams
					if nearest, _, found := a.registry.Match(fedGroups[gi].centroid); found {
						seed = nearest.Params
					}
					e := a.registry.Create(seed, fedGroups[gi].centroid)
					expertID = e.ID
					rep.NewExperts++
				}
				slotExpert[slot] = expertID
			}
			for _, p := range fedGroups[gi].parties {
				a.assignment[p] = expertID
				delete(a.personalized, p)
			}
			if err := a.registry.UpdateMemory(expertID, fedGroups[gi].centroid); err != nil {
				return err
			}
		}
	}

	// Small clusters: keep assignment, locally fine-tune (line 29).
	for _, p := range smallParties {
		params := a.paramsFor(p)
		if params == nil {
			return fmt.Errorf("shiftex: party %d has no parameters for fine-tune", p)
		}
		cfg := a.cfg.Train
		cfg.Seed = a.rng.Uint64()
		tuned, err := f.LocalFineTune(p, params, cfg)
		if err != nil {
			return fmt.Errorf("local fine-tune party %d: %w", p, err)
		}
		a.personalized[p] = tuned
	}
	return nil
}

// cohorts groups parties by assigned expert.
func (a *Aggregator) cohorts(f Fleet) map[int][]int {
	out := make(map[int][]int)
	for _, p := range f.PartyIDs() {
		id, ok := a.assignment[p]
		if !ok {
			continue
		}
		out[id] = append(out[id], p)
	}
	return out
}

// trainExperts runs `rounds` federated rounds for every expert with a
// non-empty cohort, recording the global assignment accuracy after each
// round. Participant selection comes from the policy's TrainingPlanner
// (FLIPS label clustering by default; cfg.DisableFLIPS forces uniform).
func (a *Aggregator) trainExperts(f Fleet, cohorts map[int][]int, rounds int) ([]float64, error) {
	hists := f.PartyHists()

	// The planner builds any per-cohort selection state (e.g. FLIPS
	// selectors) up front; everything it draws comes from the aggregator
	// RNG, in deterministic cohort order, so planning is part of the
	// bit-reproducible stream.
	planner := a.policy.Planner
	if a.cfg.DisableFLIPS {
		planner = adapt.UniformPlanner{}
	}
	selector, err := planner.Plan(cohorts, hists, a.rng)
	if err != nil {
		return nil, err
	}

	trace := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		for _, id := range SortedKeys(cohorts) {
			members := cohorts[id]
			if len(members) == 0 {
				continue
			}
			e, ok := a.registry.Get(id)
			if !ok {
				continue
			}
			selected, err := selector.Select(id, members, a.cfg.ParticipantsPerRound, a.rng)
			if err != nil {
				return nil, err
			}
			cfg := a.cfg.Train
			cfg.Seed = a.rng.Uint64()
			next, _, err := f.Round(e.Params, selected, cfg)
			if err != nil {
				return nil, fmt.Errorf("expert %d round %d: %w", id, r, err)
			}
			e.Params = next
			// Fresh global training supersedes stale personal fine-tunes
			// for this cohort.
			for _, p := range members {
				delete(a.personalized, p)
			}
		}
		acc, err := f.EvalAssignment(a.paramsFor)
		if err != nil {
			return nil, err
		}
		trace = append(trace, acc)
	}
	return trace, nil
}

// updateMemories folds each expert cohort's fresh mean embedding into its
// latent memory.
func (a *Aggregator) updateMemories(anchor []detect.PartyStats) error {
	sums := make(map[int]tensor.Vector)
	counts := make(map[int]float64)
	for _, st := range anchor {
		id, ok := a.assignment[st.PartyID]
		if !ok {
			continue
		}
		if sums[id] == nil {
			sums[id] = tensor.NewVector(len(st.MeanEmbedding))
		}
		if err := sums[id].Add(st.MeanEmbedding); err != nil {
			return err
		}
		counts[id]++
	}
	for id, sum := range sums {
		sum.Scale(1 / counts[id])
		if err := a.registry.UpdateMemory(id, sum); err != nil {
			return err
		}
	}
	return nil
}

// consolidate runs the policy's expert-lifecycle stage and rewires
// assignments, returning the number of merges.
func (a *Aggregator) consolidate(f Fleet) (int, error) {
	sizes := Snapshot(a.assignment)
	remap, err := a.policy.Consolidator.Consolidate(a.registry, f.Arch(), a.cfg.Tau, a.epsilon, sizes)
	if err != nil {
		return 0, err
	}
	if len(remap) == 0 {
		return 0, nil
	}
	for p, id := range a.assignment {
		if to, ok := remap[id]; ok {
			a.assignment[p] = to
		}
	}
	return len(remap), nil
}

// MeanAccuracy is a convenience over a trace.
func MeanAccuracy(trace []float64) float64 {
	if len(trace) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range trace {
		s += v
	}
	return s / float64(len(trace))
}
