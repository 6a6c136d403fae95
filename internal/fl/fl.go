// Package fl implements the federated-learning substrate ShiftEx runs on:
// parties with private local data, FedAvg aggregation, a transport-agnostic
// synchronous round engine with bounded parallelism, and wire formats for
// running federations across processes. The paper layers ShiftEx over
// PySyft/Flower; this package is the equivalent substrate built from
// scratch.
//
// A parameter vector is written once per hop, into a pooled buffer: the party
// server trains over the buffer its request arrived in and answers from it,
// and PartyExecutor.Train and TCPTrainer.TrainParty fill one taken from the
// same pool. An Update.Params from either belongs to whoever holds the update
// and may be handed back once with RecycleParams; service.Fleet does so, which
// makes the updates of its Round valid until that fleet's next Round.
//
// A buffer is taken inside the call that fills it and changes hands only with
// the returned Update, so a call its caller has given up on (a fan-out
// timeout) keeps its buffer to itself and nothing it holds is ever recycled.
// Such a call may still be reading the parameters it was sent: nobody writes
// to a round's input vector, during the round or after it.
package fl

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Party is one federation participant: private train/test data and the ID
// by which the aggregator addresses it. Raw examples never leave the party;
// only model updates and aggregate statistics do.
type Party struct {
	ID    int
	Train []dataset.Example
	Test  []dataset.Example
}

// NumSamples returns the party's training-set size.
func (p *Party) NumSamples() int { return len(p.Train) }

// TrainConfig describes one local-training assignment.
type TrainConfig struct {
	Epochs      int     `json:"epochs"`
	BatchSize   int     `json:"batchSize"`
	LR          float64 `json:"lr"`
	Momentum    float64 `json:"momentum"`
	WeightDecay float64 `json:"weightDecay"`
	// ProxMu > 0 enables the FedProx proximal term anchored at the
	// distributed global parameters.
	ProxMu float64 `json:"proxMu"`
	// Seed lets the aggregator make party-side shuffling deterministic.
	Seed uint64 `json:"seed"`
}

// maxLocalEpochs bounds the work one assignment can ask of a party. Configs
// arrive over the wire, and a connection deadline does not stop a training
// loop; far above any recipe in the paper (1-5 local epochs).
const maxLocalEpochs = 1 << 12

// Validate reports whether the config is usable.
func (c TrainConfig) Validate() error {
	switch {
	case c.Epochs <= 0 || c.Epochs > maxLocalEpochs:
		return fmt.Errorf("fl: epochs must be in [1,%d], got %d", maxLocalEpochs, c.Epochs)
	case c.LR <= 0:
		return fmt.Errorf("fl: lr must be positive, got %g", c.LR)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("fl: momentum must be in [0,1), got %g", c.Momentum)
	case c.WeightDecay < 0:
		return fmt.Errorf("fl: weight decay must be non-negative, got %g", c.WeightDecay)
	case c.ProxMu < 0:
		return fmt.Errorf("fl: prox mu must be non-negative, got %g", c.ProxMu)
	}
	return nil
}

// Update is a party's contribution to one aggregation round.
//
// Params of an update produced by PartyExecutor.Train or TCPTrainer.TrainParty
// is a pooled buffer taken inside that call and owned by whoever holds the
// update: keep it for as long as needed, or hand it back — once — with
// RecycleParams when nothing reads it any more.
type Update struct {
	PartyID    int           `json:"partyId"`
	Params     tensor.Vector `json:"params"`
	NumSamples int           `json:"numSamples"`
	TrainLoss  float64       `json:"trainLoss"`
}

// DeriveRNG derives the deterministic per-party RNG for one assignment:
// a pure function of (seed, partyID), independent of call order, scheduling,
// and transport. Both the in-process runner and the TCP party server draw
// through this, which is what makes an in-process federation and a
// cross-process one produce bit-identical updates for the same seed.
func DeriveRNG(seed uint64, partyID int) *tensor.RNG {
	return tensor.NewRNG(seed ^ (uint64(partyID)+1)*0x9e3779b97f4a7c15)
}

// paramBuf boxes a pooled parameter vector; emptyBufs recycles the boxes, so
// a vector can travel as a plain slice inside an Update and still go back to
// the pool without allocating.
type paramBuf struct{ v tensor.Vector }

var paramBufs, emptyBufs sync.Pool

// takeParams returns an empty vector with room for n floats for one call to
// fill: a pooled one when the pool has one that large, a new one otherwise.
// With n = 0 any pooled vector will do, and the caller grows it as data
// arrives. It belongs to no connection and no party, so idle ones pin nothing
// model-sized.
func takeParams(n int) tensor.Vector {
	if b, _ := paramBufs.Get().(*paramBuf); b != nil {
		v := b.v[:0]
		b.v = nil
		emptyBufs.Put(b)
		if cap(v) >= n {
			return v
		}
	}
	return make(tensor.Vector, 0, n)
}

// RecycleParams hands a parameter vector — an Update's Params, typically —
// back for reuse by a later call. The caller must own it outright and must
// not touch it afterwards; recycling one vector twice would hand it to two
// calls at once.
func RecycleParams(v tensor.Vector) {
	if cap(v) == 0 {
		return
	}
	b, _ := emptyBufs.Get().(*paramBuf)
	if b == nil {
		b = new(paramBuf)
	}
	b.v = v
	paramBufs.Put(b)
}

// LocalTrain trains a fresh model initialized at the global parameters on
// the party's data and returns the resulting update. It allocates everything
// it uses; it is the reference the cached party executor is parity-tested
// against.
func LocalTrain(p *Party, arch []int, global tensor.Vector, cfg TrainConfig, rng *tensor.RNG) (Update, error) {
	return LocalTrainWS(p, arch, global, cfg, rng, nil)
}

// LocalTrainWS is LocalTrain with a caller-provided training workspace
// (nil, or one that does not fit arch, allocates a fresh one). Worker pools
// pass one workspace per worker so every epoch of every assignment reuses
// the same buffers. The model itself is still freshly initialized from rng:
// the He-init draws are part of the party's deterministic RNG stream, so
// they must happen whether or not the values are immediately overwritten.
func LocalTrainWS(p *Party, arch []int, global tensor.Vector, cfg TrainConfig, rng *tensor.RNG, ws *nn.Workspace) (Update, error) {
	if err := checkAssignment(p, cfg); err != nil {
		return Update{}, err
	}
	model, err := nn.NewMLP(arch, rng)
	if err != nil {
		return Update{}, fmt.Errorf("party %d: %w", p.ID, err)
	}
	if ws == nil || !ws.Fits(model) {
		ws = nn.NewWorkspace(model)
	}
	return trainFrom(p, model, ws, nn.NewSGD(cfg.LR), global, cfg, rng, make(tensor.Vector, 0, len(global)))
}

// checkAssignment rejects an assignment the party cannot run.
func checkAssignment(p *Party, cfg TrainConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(p.Train) == 0 {
		return fmt.Errorf("fl: party %d has no training data", p.ID)
	}
	return nil
}

// trainFrom loads global into a model whose init draws have already been
// taken from rng and trains it on the party's data: the part of an
// assignment shared by the allocating path and the cached executor. opt must
// carry no state from an earlier training. global is only read, and not at
// all once training has ended: the trained parameters are then written into
// out[:0], which may therefore be global's own buffer.
func trainFrom(p *Party, model *nn.MLP, ws *nn.Workspace, opt *nn.SGD, global tensor.Vector, cfg TrainConfig, rng *tensor.RNG, out tensor.Vector) (Update, error) {
	if err := model.SetParams(global); err != nil {
		return Update{}, fmt.Errorf("party %d: %w", p.ID, err)
	}
	opt.LR = cfg.LR
	opt.Momentum = cfg.Momentum
	opt.WeightDecay = cfg.WeightDecay
	opt.ProxMu, opt.ProxRef = 0, nil
	if cfg.ProxMu > 0 {
		opt.ProxMu = cfg.ProxMu
		opt.ProxRef = global
	}
	loss, err := nn.TrainEpochsWS(ws, model, dataset.Inputs(p.Train), dataset.Labels(p.Train), opt, cfg.Epochs, cfg.BatchSize, rng)
	opt.ProxRef = nil // do not retain the caller's vector past the call
	if err != nil {
		return Update{}, fmt.Errorf("party %d: %w", p.ID, err)
	}
	return Update{PartyID: p.ID, Params: model.AppendParams(out[:0]), NumSamples: len(p.Train), TrainLoss: loss}, nil
}

// FedAvg aggregates updates into new global parameters, weighting each by
// its sample count (McMahan et al.).
func FedAvg(updates []Update) (tensor.Vector, error) {
	if len(updates) == 0 {
		return nil, errors.New("fl: no updates to aggregate")
	}
	vs := make([]tensor.Vector, len(updates))
	ws := make([]float64, len(updates))
	for i, u := range updates {
		if u.NumSamples <= 0 {
			return nil, fmt.Errorf("fl: update from party %d has non-positive sample count %d", u.PartyID, u.NumSamples)
		}
		vs[i] = u.Params
		ws[i] = float64(u.NumSamples)
	}
	agg, err := tensor.WeightedMean(vs, ws)
	if err != nil {
		return nil, fmt.Errorf("fedavg: %w", err)
	}
	return agg, nil
}

// Trainer obtains an update from one party; implementations may be
// in-process or remote.
type Trainer interface {
	TrainParty(partyID int, arch []int, global tensor.Vector, cfg TrainConfig) (Update, error)
}

// LocalRunner is the in-process Trainer over a set of parties.
type LocalRunner struct {
	mu      sync.Mutex
	parties map[int]*Party
	rng     *tensor.RNG
	// wsPool recycles training workspaces across TrainParty calls so a
	// round's worker goroutines each reuse one workspace instead of
	// allocating per assignment. Workspaces are architecture-specific;
	// entries that do not fit the requested arch are dropped.
	wsPool sync.Pool
}

var _ Trainer = (*LocalRunner)(nil)

// NewLocalRunner builds a runner over the given parties.
func NewLocalRunner(parties []*Party, rng *tensor.RNG) *LocalRunner {
	m := make(map[int]*Party, len(parties))
	for _, p := range parties {
		m[p.ID] = p
	}
	return &LocalRunner{parties: m, rng: rng}
}

// SetPartyData replaces a party's data (stream window rollover).
func (r *LocalRunner) SetPartyData(id int, train, test []dataset.Example) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.parties[id]
	if !ok {
		return fmt.Errorf("fl: unknown party %d", id)
	}
	p.Train = train
	p.Test = test
	return nil
}

// Party returns the party with the given ID.
func (r *LocalRunner) Party(id int) (*Party, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.parties[id]
	return p, ok
}

// TrainParty implements Trainer.
func (r *LocalRunner) TrainParty(partyID int, arch []int, global tensor.Vector, cfg TrainConfig) (Update, error) {
	r.mu.Lock()
	p, ok := r.parties[partyID]
	var rng *tensor.RNG
	if ok {
		// Derive a per-call RNG under the lock; training itself runs
		// unlocked so parties can train concurrently.
		rng = DeriveRNG(cfg.Seed, partyID)
	}
	r.mu.Unlock()
	if !ok {
		return Update{}, fmt.Errorf("fl: unknown party %d", partyID)
	}
	ws, _ := r.wsPool.Get().(*nn.Workspace)
	if ws == nil || !ws.FitsDims(arch) {
		ws = nn.NewWorkspaceDims(arch)
	}
	u, err := LocalTrainWS(p, arch, global, cfg, rng, ws)
	r.wsPool.Put(ws)
	return u, err
}

// Engine runs synchronous federated rounds over a Trainer.
type Engine struct {
	Arch    []int
	Trainer Trainer
	// Workers bounds concurrent party training; 0 means one per core
	// (runtime.GOMAXPROCS(0)). Results are bit-identical for any value:
	// per-party RNGs derive from (seed, partyID) alone and updates are
	// merged in selection order.
	Workers int
}

// Round trains the selected parties from the given global parameters and
// returns the FedAvg aggregate together with the individual updates.
// Parties that fail are skipped (their error is joined into err only when
// every party fails); partial participation is the norm in FL.
func (e *Engine) Round(global tensor.Vector, selected []int, cfg TrainConfig) (tensor.Vector, []Update, error) {
	if len(selected) == 0 {
		return nil, nil, errors.New("fl: no parties selected")
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(selected) {
		workers = len(selected)
	}

	type result struct {
		update Update
		err    error
	}
	results := make([]result, len(selected))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, id := range selected {
		wg.Add(1)
		go func(slot, partyID int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			u, err := e.Trainer.TrainParty(partyID, e.Arch, global, cfg)
			results[slot] = result{update: u, err: err}
		}(i, id)
	}
	wg.Wait()

	updates := make([]Update, 0, len(selected))
	var errs []error
	for _, r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		updates = append(updates, r.update)
	}
	if len(updates) == 0 {
		return nil, nil, fmt.Errorf("fl: all parties failed: %w", errors.Join(errs...))
	}
	agg, err := FedAvg(updates)
	if err != nil {
		return nil, nil, err
	}
	return agg, updates, nil
}

// Evaluator measures parameter vectors against datasets through one cached
// model and its workspaces, so repeated evaluations (per round, per party)
// stop allocating model-sized buffers. Not safe for concurrent use.
type Evaluator struct {
	model *nn.MLP
	ws    *nn.Workspace
	// bw, xs and classes carry one evalBatch-row chunk of a test set through
	// the batched forward pass.
	bw      *nn.BatchWorkspace
	xs      []tensor.Vector
	classes []int
}

// evalBatch is how many examples Accuracy sends through the GEMM forward pass
// at once: enough rows to amortize a layer's weights, few enough that a large
// test set does not size the evaluator's activation matrices.
const evalBatch = 64

// NewEvaluator builds an evaluator for one architecture.
func NewEvaluator(arch []int) (*Evaluator, error) {
	model, err := nn.NewMLP(arch, tensor.NewRNG(0))
	if err != nil {
		return nil, err
	}
	return &Evaluator{
		model:   model,
		ws:      nn.NewWorkspace(model),
		bw:      nn.NewBatchWorkspace(model, 1),
		xs:      make([]tensor.Vector, 0, evalBatch),
		classes: make([]int, evalBatch),
	}, nil
}

// Accuracy measures the accuracy of the given parameters on a test set, a
// batch of evalBatch examples at a time; the predictions are those of
// PredictWS example by example.
func (e *Evaluator) Accuracy(params tensor.Vector, test []dataset.Example) (float64, error) {
	if len(test) == 0 {
		return 0, errors.New("fl: empty test set")
	}
	if err := e.model.SetParams(params); err != nil {
		return 0, err
	}
	correct := 0
	for start := 0; start < len(test); start += evalBatch {
		chunk := test[start:min(start+evalBatch, len(test))]
		e.xs = e.xs[:0]
		for _, ex := range chunk {
			e.xs = append(e.xs, ex.X)
		}
		classes := e.classes[:len(chunk)]
		if err := e.model.PredictBatchWS(e.bw, e.xs, classes); err != nil {
			return 0, err
		}
		for i, ex := range chunk {
			if classes[i] == ex.Y {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(test)), nil
}

// Loss measures the mean cross-entropy loss of the given parameters on a
// set of examples.
func (e *Evaluator) Loss(params tensor.Vector, examples []dataset.Example) (float64, error) {
	if len(examples) == 0 {
		return 0, errors.New("nn: empty batch")
	}
	if err := e.model.SetParams(params); err != nil {
		return 0, err
	}
	var total float64
	for _, ex := range examples {
		loss, err := e.model.LossExampleWS(e.ws, ex.X, ex.Y)
		if err != nil {
			return 0, err
		}
		total += loss
	}
	return total / float64(len(examples)), nil
}

// Model loads params into the evaluator's cached model and returns it. The
// model is shared scratch state: it is valid until the next Evaluator call.
func (e *Evaluator) Model(params tensor.Vector) (*nn.MLP, error) {
	if err := e.model.SetParams(params); err != nil {
		return nil, err
	}
	return e.model, nil
}
