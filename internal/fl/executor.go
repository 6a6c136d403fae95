package fl

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// WindowProvider supplies a streaming party's per-window data. A party
// with a provider answers window-advance requests by swapping its
// train/test splits; its detector state rolls forward across windows.
type WindowProvider interface {
	NumWindows() int
	PartyWindow(w int) (train, test []dataset.Example, err error)
}

// scratch is everything a party-side call needs that is sized by the
// architecture: the model and workspace (shared by training, evaluation and
// the detector's embedding pass) and the optimizer whose velocity is reused.
// Nothing in it carries meaning from one call to the next.
type scratch struct {
	Evaluator
	opt nn.SGD
}

// scratchPool recycles scratch sets across calls, parties and transports in
// the process (the same idea as LocalRunner.wsPool): a fleet uses one
// architecture, so a steady stream of calls finds a fitting set, and an idle
// process pins nothing — the collector empties the pool.
var scratchPool sync.Pool

// acquireScratch returns a scratch set fitting arch, pooled or new. A pooled
// set of another architecture is dropped.
func acquireScratch(arch []int) (*scratch, error) {
	if sc, _ := scratchPool.Get().(*scratch); sc != nil && sc.ws.FitsDims(arch) {
		return sc, nil
	}
	ev, err := NewEvaluator(arch)
	if err != nil {
		return nil, err
	}
	return &scratch{Evaluator: *ev}, nil
}

// PartyExecutor is the party side of the federation protocol: one party's
// data, stream position and detector state, and the five operations the
// aggregator asks of it. The TCP party server and the in-process transport
// both answer through it, which is what makes them answer identically.
//
// Model-sized buffers come from scratchPool; at steady state a call allocates
// only what it returns. Safe for concurrent use: training and evaluation of
// one party may overlap, statistics are serialized because the detector's
// previous-window state advances on every observation.
type PartyExecutor struct {
	id         int
	numClasses int

	mu       sync.Mutex // guards the fields below
	train    []dataset.Example
	test     []dataset.Example
	windows  WindowProvider
	detector *detect.Detector
	rng      *tensor.RNG // statistics stream for seed-0 (legacy) requests
}

// NewPartyExecutor builds an executor serving the party's current data. rng
// feeds detector subsampling for requests that pin no seed; nil derives that
// stream from (0, party ID) like any other seed.
func NewPartyExecutor(party *Party, numClasses int, rng *tensor.RNG) (*PartyExecutor, error) {
	if party == nil {
		return nil, errors.New("fl: nil party")
	}
	det, err := detect.NewDetector(party.ID, numClasses, 64)
	if err != nil {
		return nil, err
	}
	return &PartyExecutor{
		id:         party.ID,
		numClasses: numClasses,
		train:      party.Train,
		test:       party.Test,
		detector:   det,
		rng:        rng,
	}, nil
}

// ID returns the party's ID.
func (e *PartyExecutor) ID() int { return e.id }

// SetWindowProvider attaches a stream of per-window data; Advance then
// follows it.
func (e *PartyExecutor) SetWindowProvider(p WindowProvider) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.windows = p
}

// snapshot returns the party's current data, so training and evaluation run
// unlocked while an advance swaps the window.
func (e *PartyExecutor) snapshot() Party {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Party{ID: e.id, Train: e.train, Test: e.test}
}

// Train runs one local-training assignment. The RNG derives from
// (cfg.Seed, party ID) only, and the model's init draws are taken from it
// before global is loaded — the same stream LocalTrain consumes — so updates
// are bit-identical across transports and to the allocating path. The
// update's Params is a pooled buffer taken inside the call (see Update).
func (e *PartyExecutor) Train(arch []int, global tensor.Vector, cfg TrainConfig) (Update, error) {
	out := takeParams(len(global))
	u, err := e.trainInto(out, arch, global, cfg)
	if err != nil {
		RecycleParams(out)
	}
	return u, err
}

// trainInto is Train writing the trained parameters into out[:0]. out may be
// global's own buffer — the party server passes the request's receive buffer
// as both — because global is dead by the time the result is written.
func (e *PartyExecutor) trainInto(out tensor.Vector, arch []int, global tensor.Vector, cfg TrainConfig) (Update, error) {
	p := e.snapshot()
	if err := checkAssignment(&p, cfg); err != nil {
		return Update{}, err
	}
	sc, err := acquireScratch(arch)
	if err != nil {
		return Update{}, fmt.Errorf("party %d: %w", e.id, err)
	}
	defer scratchPool.Put(sc)
	rng := DeriveRNG(cfg.Seed, e.id)
	nn.SkipInit(arch, rng) // every value is about to be overwritten by global
	sc.opt.Reset()
	return trainFrom(&p, sc.model, sc.ws, &sc.opt, global, cfg, rng, out)
}

// Stats runs the party-side shift detector (Algorithm 1) against the given
// encoder parameters, advancing its previous-window state. A non-zero seed
// pins the subsampling RNG to (seed, party ID).
func (e *PartyExecutor) Stats(arch []int, encoder tensor.Vector, seed uint64) (detect.PartyStats, error) {
	sc, err := acquireScratch(arch)
	if err != nil {
		return detect.PartyStats{}, err
	}
	defer scratchPool.Put(sc)
	model, err := sc.Model(encoder)
	if err != nil {
		return detect.PartyStats{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rng := e.rng
	if seed != 0 || rng == nil {
		rng = DeriveRNG(seed, e.id)
	}
	return e.detector.Observe(model, e.train, rng)
}

// Eval returns the accuracy of params on the party's private test split.
func (e *PartyExecutor) Eval(arch []int, params tensor.Vector) (float64, error) {
	sc, err := acquireScratch(arch)
	if err != nil {
		return 0, err
	}
	defer scratchPool.Put(sc)
	return sc.Accuracy(params, e.snapshot().Test)
}

// Hist returns the current window's label histogram over numClasses classes
// (the party's own class count when numClasses is not positive).
func (e *PartyExecutor) Hist(numClasses int) stats.Histogram {
	if numClasses <= 0 {
		numClasses = e.numClasses
	}
	return dataset.LabelHistogram(e.snapshot().Train, numClasses)
}

// Advance rolls the party's stream forward to window w.
func (e *PartyExecutor) Advance(w int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.windows == nil {
		// A single-window (legacy) party already serves window 0, so
		// advancing to it is a no-op — this keeps legacy parties drivable
		// by the service aggregator, which always advances at window
		// start.
		if w == 0 {
			return nil
		}
		return fmt.Errorf("fl: party %d has no window stream", e.id)
	}
	if w < 0 || w >= e.windows.NumWindows() {
		return fmt.Errorf("fl: party %d window %d out of range [0,%d)", e.id, w, e.windows.NumWindows())
	}
	train, test, err := e.windows.PartyWindow(w)
	if err != nil {
		return fmt.Errorf("fl: party %d window %d: %w", e.id, w, err)
	}
	e.train = train
	e.test = test
	return nil
}
