package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/shiftex"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// fanOut runs fn for every party on the shared fan-out machinery
// (FanOut), describing failed slots as "<op> party <id>" and counting each
// exhausted-retry failure into the fleet metrics.
func fanOut[T any](f *Fleet, fan FanoutConfig, ids []int, op string, fn func(id int) (T, error)) ([]T, []error) {
	return FanOut(fan, ids, op, func(id int) string { return fmt.Sprintf("party %d", id) }, f.metrics.PartyFailure, fn)
}

// Fleet adapts a Transport to the shiftex.Fleet contract the aggregator
// drives, adding bounded-parallel fan-out, per-call timeout, retry, and a
// round-completion quorum. All aggregation is performed in party/slot order
// so results are independent of scheduling.
type Fleet struct {
	transport  Transport
	arch       []int
	numClasses int
	numWindows int
	seed       uint64
	fan        FanoutConfig
	metrics    *Metrics

	mu     sync.Mutex
	window int
	// stale marks live parties whose last window advance failed: their
	// data is at the wrong window, so they are excluded from every call
	// until a later advance succeeds — silently mixing windows would
	// corrupt both training and detection.
	stale map[int]bool
	// spent holds the parameter vectors of the updates the last Round
	// received; the next Round hands them back to the transport.
	spent []tensor.Vector
}

var _ shiftex.Fleet = (*Fleet)(nil)

// NewFleet builds a fleet over a transport. arch is the full layer-width
// list; numWindows bounds SetWindow; seed roots every per-party stream.
func NewFleet(t Transport, arch []int, numClasses, numWindows int, seed uint64, fan FanoutConfig, m *Metrics) (*Fleet, error) {
	if t == nil {
		return nil, errors.New("service: nil transport")
	}
	if len(arch) < 3 {
		return nil, fmt.Errorf("service: arch needs >=3 widths, got %d", len(arch))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("service: need >=2 classes, got %d", numClasses)
	}
	if numWindows < 1 {
		return nil, fmt.Errorf("service: need >=1 window, got %d", numWindows)
	}
	ids := t.PartyIDs()
	if len(ids) == 0 {
		return nil, errors.New("service: transport has no parties")
	}
	// Party IDs must be 0..n-1: the aggregator indexes per-party slices
	// (histograms, detectors) by ID, exactly like the simulation harness.
	for i, id := range ids {
		if id != i {
			return nil, fmt.Errorf("service: party IDs must be contiguous 0..%d, got %v", len(ids)-1, ids)
		}
	}
	if m == nil {
		m = NewMetrics()
	}
	return &Fleet{
		transport:  t,
		arch:       append([]int(nil), arch...),
		numClasses: numClasses,
		numWindows: numWindows,
		seed:       seed,
		fan:        fan,
		metrics:    m,
		stale:      make(map[int]bool),
	}, nil
}

// checkFresh rejects calls to a party whose stream missed the last window
// advance.
func (f *Fleet) checkFresh(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stale[id] {
		return fmt.Errorf("service: party %d missed the advance to window %d; excluded until it catches up", id, f.window)
	}
	return nil
}

// Arch implements shiftex.Fleet.
func (f *Fleet) Arch() []int { return append([]int(nil), f.arch...) }

// NumParties implements shiftex.Fleet.
func (f *Fleet) NumParties() int { return len(f.transport.PartyIDs()) }

// PartyIDs implements shiftex.Fleet.
func (f *Fleet) PartyIDs() []int { return f.transport.PartyIDs() }

// NumWindows returns the stream length the fleet was configured with.
func (f *Fleet) NumWindows() int { return f.numWindows }

// Window returns the current stream window.
func (f *Fleet) Window() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.window
}

// InitialParams implements shiftex.Fleet with the same deterministic
// initialization the simulation harness uses.
func (f *Fleet) InitialParams() (tensor.Vector, error) {
	m, err := nn.NewMLP(f.arch, tensor.NewRNG(0x1234))
	if err != nil {
		return nil, err
	}
	return m.Params(), nil
}

// statsSeed derives the per-window root of the detector-subsampling
// streams. Non-zero by construction (0 would select the legacy party-local
// stream on remote servers).
func (f *Fleet) statsSeed(window int) uint64 {
	s := (f.seed ^ (uint64(window)+0x51)*0xbf58476d1ce4e5b9) | 1
	return s
}

// SetWindow implements shiftex.Fleet: it advances every party's stream.
// Parties that fail to advance are tolerated but marked stale — every call
// to them fails fast until a later advance succeeds, so a live party with
// previous-window data can never leak stale updates or statistics into the
// current window. The window itself only fails when no party advanced.
func (f *Fleet) SetWindow(w int) error {
	if w < 0 || w >= f.numWindows {
		return fmt.Errorf("service: window %d out of range [0,%d)", w, f.numWindows)
	}
	ids := f.transport.PartyIDs()
	_, errs := fanOut(f, f.fan, ids, "advance", func(id int) (struct{}, error) {
		return struct{}{}, f.transport.Advance(id, w)
	})
	ok := 0
	var joined []error
	f.mu.Lock()
	for i, id := range ids {
		if errs[i] == nil {
			ok++
			delete(f.stale, id)
		} else {
			f.stale[id] = true
			joined = append(joined, errs[i])
		}
	}
	if ok > 0 {
		f.window = w
	}
	f.mu.Unlock()
	if ok == 0 {
		return fmt.Errorf("service: no party advanced to window %d: %w", w, errors.Join(joined...))
	}
	return nil
}

// Round implements shiftex.Fleet: one synchronous federated round with
// straggler/failure tolerance. Updates aggregate in selection order; the
// round fails when fewer than the quorum of selected parties report.
//
// The returned updates' Params are valid until this fleet's next Round, which
// recycles them; the aggregate is the caller's to keep. Only updates that
// reached the fleet are ever recycled: a call abandoned by the fan-out
// timeout keeps the buffer it took for itself, and may go on reading params —
// which is therefore never written to, here or by the caller's next round.
func (f *Fleet) Round(params tensor.Vector, selected []int, cfg fl.TrainConfig) (tensor.Vector, []fl.Update, error) {
	if len(selected) == 0 {
		return nil, nil, errors.New("service: no parties selected")
	}
	f.mu.Lock()
	spent := f.spent
	f.spent = nil
	f.mu.Unlock()
	for _, v := range spent {
		f.transport.Recycle(v)
	}
	start := time.Now()
	results, errs := fanOut(f, f.fan, selected, "train", func(id int) (fl.Update, error) {
		if err := f.checkFresh(id); err != nil {
			return fl.Update{}, err
		}
		return f.transport.Train(id, f.arch, params, cfg)
	})
	updates := make([]fl.Update, 0, len(selected))
	spent = spent[:0]
	var failures []error
	for i := range results {
		if errs[i] != nil {
			failures = append(failures, errs[i])
			continue
		}
		updates = append(updates, results[i])
		spent = append(spent, results[i].Params)
	}
	f.mu.Lock()
	f.spent = spent
	f.mu.Unlock()
	need := f.fan.QuorumNeed(len(selected))
	if len(updates) < need {
		f.metrics.RoundFailed()
		return nil, nil, fmt.Errorf("service: round below quorum: %d of %d updates (need %d): %w",
			len(updates), len(selected), need, errors.Join(failures...))
	}
	agg, err := fl.FedAvg(updates)
	if err != nil {
		f.metrics.RoundFailed()
		return nil, nil, err
	}
	f.metrics.ObserveRound(time.Since(start), len(selected)-len(updates))
	return agg, updates, nil
}

// StatsAll implements shiftex.Fleet: statistics from every party in ID
// order, collected on the worker pool. The subsampling seed is a pure
// function of (fleet seed, window, party), so both transports observe
// identically. Stats calls are NOT retried: the party-side detector
// advances its previous-window state on every Observe, so re-running it
// after a fleet-side timeout whose server-side call actually completed
// would make the detector compare a window against itself. A party that
// fails once is skipped for the window (treated stable — the safe
// default), which leaves its detector state consistent either way.
func (f *Fleet) StatsAll(params tensor.Vector) ([]detect.PartyStats, error) {
	seed := f.statsSeed(f.Window())
	ids := f.transport.PartyIDs()
	noRetry := f.fan
	noRetry.Retries = 0
	results, errs := fanOut(f, noRetry, ids, "stats", func(id int) (detect.PartyStats, error) {
		if err := f.checkFresh(id); err != nil {
			return detect.PartyStats{}, err
		}
		return f.transport.Stats(id, f.arch, params, f.numClasses, seed)
	})
	out := make([]detect.PartyStats, 0, len(ids))
	var joined []error
	for i := range results {
		if errs[i] != nil {
			joined = append(joined, errs[i])
			continue
		}
		out = append(out, results[i])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("service: no party reported statistics: %w", errors.Join(joined...))
	}
	return out, nil
}

// EvalAssignment implements shiftex.Fleet: per-party accuracy under each
// party's own model, averaged in party order. Unreachable parties are
// skipped; an error is returned only when nobody is evaluable.
func (f *Fleet) EvalAssignment(paramsFor func(partyID int) tensor.Vector) (float64, error) {
	ids := f.transport.PartyIDs()
	type evalRes struct {
		acc float64
		ok  bool
	}
	results, errs := fanOut(f, f.fan, ids, "eval", func(id int) (evalRes, error) {
		if err := f.checkFresh(id); err != nil {
			return evalRes{}, err
		}
		params := paramsFor(id)
		if params == nil {
			return evalRes{}, nil // no model assigned; skip silently
		}
		acc, err := f.transport.Eval(id, f.arch, params)
		if err != nil {
			return evalRes{}, err
		}
		return evalRes{acc: acc, ok: true}, nil
	})
	var total float64
	var counted int
	var joined []error
	for i := range results {
		if errs[i] != nil {
			joined = append(joined, errs[i])
			continue
		}
		if results[i].ok {
			total += results[i].acc
			counted++
		}
	}
	if counted == 0 {
		return 0, fmt.Errorf("service: no party evaluable: %w", errors.Join(joined...))
	}
	return total / float64(counted), nil
}

// LocalFineTune implements shiftex.Fleet. A party that cannot fine-tune
// (dropped, timed out after retries) keeps its previous parameters rather
// than failing the whole window — personalization is best-effort in a live
// federation.
func (f *Fleet) LocalFineTune(partyID int, params tensor.Vector, cfg fl.TrainConfig) (tensor.Vector, error) {
	u, err := Attempt(f.fan, func() (fl.Update, error) {
		if err := f.checkFresh(partyID); err != nil {
			return fl.Update{}, err
		}
		return f.transport.Train(partyID, f.arch, params, cfg)
	})
	if err != nil {
		f.metrics.PartyFailure()
		return params, nil
	}
	return u.Params, nil
}

// PartyHists implements shiftex.Fleet. A dropped party contributes a
// uniform histogram — the least-informative deterministic fallback, which
// leaves FLIPS clustering well defined.
func (f *Fleet) PartyHists() []stats.Histogram {
	ids := f.transport.PartyIDs()
	results, errs := fanOut(f, f.fan, ids, "hist", func(id int) (stats.Histogram, error) {
		if err := f.checkFresh(id); err != nil {
			return nil, err
		}
		return f.transport.Hist(id, f.numClasses)
	})
	out := make([]stats.Histogram, len(ids))
	for i := range results {
		if errs[i] != nil || len(results[i]) == 0 {
			h := make(stats.Histogram, f.numClasses)
			for c := range h {
				h[c] = 1 / float64(f.numClasses)
			}
			out[i] = h
			continue
		}
		out[i] = results[i]
	}
	return out
}
