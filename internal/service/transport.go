// Package service is the deployable ShiftEx runtime: a long-running
// coordinator that drives the real internal/shiftex aggregator (Algorithms
// 1-2) over a pluggable Transport, adding what a daemon needs and the
// simulation harness never had — bounded-parallel fan-out with per-call
// timeouts, retries and a completion quorum; versioned checkpoint/restore
// of the full aggregator state; and an HTTP observability surface.
//
// The determinism contract: every per-party random stream is derived from
// (seed, window, partyID) through fl.DeriveRNG, never from call order or
// scheduling, so a fleet of in-process parties and a fleet of TCP party
// processes answer identically and the aggregator makes bit-identical
// shift-detection and expert-assignment decisions on both
// (TestCrossProcessParity).
package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/fl"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Transport is everything the runtime needs from one federation party,
// addressed by ID. Implementations must be safe for concurrent use; the
// fleet fans calls out across parties on a bounded worker pool.
type Transport interface {
	// PartyIDs returns the fleet's party IDs in ascending order.
	PartyIDs() []int
	// Train runs one local-training assignment on the party. The party
	// derives its RNG from (cfg.Seed, partyID) only. The update's Params
	// belongs to the caller until it hands it to Recycle.
	Train(partyID int, arch []int, global tensor.Vector, cfg fl.TrainConfig) (fl.Update, error)
	// Recycle takes back the Params of an update this transport's Train
	// returned, once nothing reads it any more; the caller must not touch
	// the vector afterwards. Only the transport knows whether its updates
	// live in pooled buffers — one whose updates do not ignores the call.
	Recycle(params tensor.Vector)
	// Stats runs the party-side shift detector (Algorithm 1) against the
	// given encoder parameters; seed pins the party's subsampling RNG.
	Stats(partyID int, arch []int, encoder tensor.Vector, numClasses int, seed uint64) (detect.PartyStats, error)
	// Eval returns the accuracy of params on the party's private test split.
	Eval(partyID int, arch []int, params tensor.Vector) (float64, error)
	// Hist returns the party's current-window label histogram.
	Hist(partyID, numClasses int) (stats.Histogram, error)
	// Advance rolls the party's stream forward to window w.
	Advance(partyID, w int) error
	// Close releases transport resources.
	Close() error
}

// LocalTransport runs every party inside the aggregator process — the
// deployment-shaped equivalent of the simulation harness, and the reference
// the TCP transport is parity-tested against. Each party is the same
// fl.PartyExecutor a party server answers through, with its own lock, so
// fan-outs (notably the detector pass in StatsAll, the hot step of every
// window) run genuinely in parallel across parties.
type LocalTransport struct {
	mu      sync.Mutex // guards the party registry only
	parties map[int]*fl.PartyExecutor
	ids     []int
}

var _ Transport = (*LocalTransport)(nil)

// NewLocalTransport returns an empty local transport.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{parties: make(map[int]*fl.PartyExecutor)}
}

// AddParty registers an in-process party positioned at window 0 of its
// stream.
func (t *LocalTransport) AddParty(id, numClasses int, windows fl.WindowProvider) error {
	if windows == nil || windows.NumWindows() == 0 {
		return fmt.Errorf("service: party %d has no window stream", id)
	}
	train, test, err := windows.PartyWindow(0)
	if err != nil {
		return err
	}
	p, err := fl.NewPartyExecutor(&fl.Party{ID: id, Train: train, Test: test}, numClasses, nil)
	if err != nil {
		return err
	}
	p.SetWindowProvider(windows)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.parties[id]; dup {
		return fmt.Errorf("service: duplicate party %d", id)
	}
	t.parties[id] = p
	t.ids = append(t.ids, id)
	sort.Ints(t.ids)
	return nil
}

// PartyIDs implements Transport.
func (t *LocalTransport) PartyIDs() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int(nil), t.ids...)
}

func (t *LocalTransport) party(id int) (*fl.PartyExecutor, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.parties[id]
	if !ok {
		return nil, fmt.Errorf("service: unknown party %d", id)
	}
	return p, nil
}

// Train implements Transport.
func (t *LocalTransport) Train(partyID int, arch []int, global tensor.Vector, cfg fl.TrainConfig) (fl.Update, error) {
	p, err := t.party(partyID)
	if err != nil {
		return fl.Update{}, err
	}
	return p.Train(arch, global, cfg)
}

// Recycle implements Transport: the executor's updates are pooled.
func (t *LocalTransport) Recycle(params tensor.Vector) { fl.RecycleParams(params) }

// Stats implements Transport; the detector's rolling previous-window state
// advances exactly as a remote party server's would.
func (t *LocalTransport) Stats(partyID int, arch []int, encoder tensor.Vector, numClasses int, seed uint64) (detect.PartyStats, error) {
	p, err := t.party(partyID)
	if err != nil {
		return detect.PartyStats{}, err
	}
	return p.Stats(arch, encoder, seed)
}

// Eval implements Transport.
func (t *LocalTransport) Eval(partyID int, arch []int, params tensor.Vector) (float64, error) {
	p, err := t.party(partyID)
	if err != nil {
		return 0, err
	}
	return p.Eval(arch, params)
}

// Hist implements Transport.
func (t *LocalTransport) Hist(partyID, numClasses int) (stats.Histogram, error) {
	p, err := t.party(partyID)
	if err != nil {
		return nil, err
	}
	return p.Hist(numClasses), nil
}

// Advance implements Transport.
func (t *LocalTransport) Advance(partyID, w int) error {
	p, err := t.party(partyID)
	if err != nil {
		return err
	}
	return p.Advance(w)
}

// Close implements Transport.
func (t *LocalTransport) Close() error { return nil }

// TCPTransport reaches parties running as separate processes over the
// internal/fl wire protocol.
type TCPTransport struct {
	trainer *fl.TCPTrainer
	ids     []int
	addrs   map[int]string
}

var _ Transport = (*TCPTransport)(nil)

// SetTracer forwards a tracer to the underlying fl trainer so every wire
// call records an fl.<kind> span and propagates its traceparent to the
// party process.
func (t *TCPTransport) SetTracer(tr *telemetry.Tracer) { t.trainer.SetTracer(tr) }

// NewTCPTransport builds a transport over a party-ID → address map.
// dialTimeout and callTimeout of 0 keep the fl defaults (5s / 2m).
func NewTCPTransport(addrs map[int]string, dialTimeout, callTimeout time.Duration) (*TCPTransport, error) {
	if len(addrs) == 0 {
		return nil, errors.New("service: no party addresses")
	}
	m := make(map[int]string, len(addrs))
	ids := make([]int, 0, len(addrs))
	for id, a := range addrs {
		m[id] = a
		ids = append(ids, id)
	}
	sort.Ints(ids)
	tr := fl.NewTCPTrainer(m)
	tr.DialTimeout = dialTimeout
	tr.CallTimeout = callTimeout
	return &TCPTransport{trainer: tr, ids: ids, addrs: m}, nil
}

// Ping dials and version-checks every party and returns an error naming the
// first unreachable one, so daemons can fail fast with an actionable message.
// Each successful connection stays pooled for the party's first call.
func (t *TCPTransport) Ping(timeout time.Duration) error {
	for _, id := range t.ids {
		if err := t.trainer.Ping(id, timeout); err != nil {
			return fmt.Errorf("party %d at %s unreachable: %w", id, t.addrs[id], err)
		}
	}
	return nil
}

// PartyIDs implements Transport.
func (t *TCPTransport) PartyIDs() []int { return append([]int(nil), t.ids...) }

// Train implements Transport.
func (t *TCPTransport) Train(partyID int, arch []int, global tensor.Vector, cfg fl.TrainConfig) (fl.Update, error) {
	return t.trainer.TrainParty(partyID, arch, global, cfg)
}

// Recycle implements Transport: the trainer receives updates into pooled
// buffers.
func (t *TCPTransport) Recycle(params tensor.Vector) { fl.RecycleParams(params) }

// Stats implements Transport.
func (t *TCPTransport) Stats(partyID int, arch []int, encoder tensor.Vector, numClasses int, seed uint64) (detect.PartyStats, error) {
	return t.trainer.FetchStats(partyID, arch, encoder, numClasses, seed)
}

// Eval implements Transport.
func (t *TCPTransport) Eval(partyID int, arch []int, params tensor.Vector) (float64, error) {
	return t.trainer.EvalParty(partyID, arch, params)
}

// Hist implements Transport.
func (t *TCPTransport) Hist(partyID, numClasses int) (stats.Histogram, error) {
	return t.trainer.HistParty(partyID, numClasses)
}

// Advance implements Transport.
func (t *TCPTransport) Advance(partyID, w int) error {
	return t.trainer.AdvanceParty(partyID, w)
}

// Close implements Transport: it closes the pooled party connections.
func (t *TCPTransport) Close() error { return t.trainer.Close() }
