// Package loadgen is the repo's benchmark plumbing: the one request loop
// (Run), the two targets it drives (an in-process serve.Server, a gateway
// or replica base URL), the one paired best-of-N trial protocol
// (PairedTrials), and the serving, gateway, tracing, drift and adapt-live
// benchmark entry points that turn runs into internal/experiments
// artifacts. It is measurement policy, kept out of the serving middleware:
// only cmd/shiftex-bench imports it, and serve, gateway and continual do not
// know it exists.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Answer is what a target reports about one served request; in-process
// targets leave GatewayCached false.
type Answer struct {
	Class         int
	Expert        int
	Matched       bool
	GatewayCached bool
}

// Target serves one request. model is the name the request is addressed to,
// parent the request's root span (the zero Span on untraced runs) and t0 its
// start instant, already read by the driver. An error wrapping
// serve.ErrOverloaded counts as a rejection, any other as a failed request.
type Target interface {
	Predict(ctx context.Context, model string, x tensor.Vector, parent *telemetry.Span, t0 time.Time) (Answer, error)
}

// Stream is the request source: request i replays Items[i%len(Items)], or
// the same index of Shifted once Shift has been called — a regime change is
// one atomic flip, not per-request work.
type Stream struct {
	Items   []serve.WorkItem
	Shifted []serve.WorkItem // same length as Items, or nil

	on atomic.Bool
}

// Shift switches every request claimed from now on to the Shifted items.
func (s *Stream) Shift() { s.on.Store(true) }

// Trigger fires once, inline on the worker that claims the first request at
// or past the mark — so the run is by construction still issuing requests
// when Fire returns. The mark is fraction At of the request count, or of
// MaxDuration when one is set, whichever is crossed first (the counter
// alone never gets there when a deadline cuts a huge Repeat short).
type Trigger struct {
	At float64 // in (0, 1)
	// Fire receives the index of the claimed request it runs before.
	Fire func(claimed int64) error
	// TooLate is the error Run returns when the run ended short of the mark:
	// it then holds no post-trigger traffic and is not evidence of anything.
	TooLate error
}

// Pacing is how hard a run drives its target.
type Pacing struct {
	// TargetQPS paces requests at this aggregate rate; 0 runs open loop
	// (as fast as the target accepts).
	TargetQPS float64
	// Concurrency is the number of client goroutines (default: 2 per core).
	Concurrency int
	// Repeat is how many passes over the stream to replay (default 1).
	Repeat int
	// MaxDuration stops the run early when positive.
	MaxDuration time.Duration
}

// Unbounded is a Repeat for runs that only cancellation ends.
const Unbounded = math.MaxInt32

// Plan is one load run.
type Plan struct {
	Stream *Stream
	// Models spreads requests round-robin: request i is addressed to
	// Models[i%len(Models)] (default: the default model).
	Models []string
	Pacing
	Triggers []Trigger
	// Tracer, when set, roots one loadgen.predict span per request and
	// hands it to the target as the parent.
	Tracer *telemetry.Tracer
}

func (p Plan) withDefaults() Plan {
	if len(p.Models) == 0 {
		p.Models = []string{httpapi.DefaultModel}
	}
	if p.Repeat <= 0 {
		p.Repeat = 1
	}
	if p.Concurrency <= 0 {
		p.Concurrency = 2 * runtime.GOMAXPROCS(0)
	}
	return p
}

// Tally is the scoring of one slice of the run (a regime, a model).
type Tally struct {
	Name             string
	Requests         uint64 // completed predictions
	Correct          uint64
	AssignedKnown    uint64 // requests whose party has a recorded assignment
	RoutedToAssigned uint64 // of those, routed to the party's trained expert
	Matched          uint64 // latent-memory match (vs fallback)
	GatewayCached    uint64
}

func (t *Tally) add(o Tally) {
	t.Requests += o.Requests
	t.Correct += o.Correct
	t.AssignedKnown += o.AssignedKnown
	t.RoutedToAssigned += o.RoutedToAssigned
	t.Matched += o.Matched
	t.GatewayCached += o.GatewayCached
}

// Accuracy returns the fraction of completed predictions that were correct.
func (t Tally) Accuracy() float64 { return ratio(t.Correct, t.Requests) }

// RoutingAccuracy returns the fraction of assignment-known requests routed
// to the expert the training run assigned to the originating party.
func (t Tally) RoutingAccuracy() float64 { return ratio(t.RoutedToAssigned, t.AssignedKnown) }

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Latency summarizes per-request latencies of completed predictions.
type Latency struct {
	P50, P90, P99, Max time.Duration
}

func summarize(all []time.Duration) Latency {
	if len(all) == 0 {
		return Latency{}
	}
	slices.Sort(all)
	q := func(p float64) time.Duration {
		return all[min(int(p*float64(len(all))), len(all)-1)]
	}
	return Latency{P50: q(0.50), P90: q(0.90), P99: q(0.99), Max: all[len(all)-1]}
}

// Result aggregates one run. The embedded Tally is the whole run's; Regimes
// and Models slice it by the item's regime and the addressed model, sorted
// by name, without the slices nothing completed in.
type Result struct {
	Tally
	Errors   uint64
	Rejected uint64
	Duration time.Duration // the load window: first claim to last completion
	Latency  Latency
	Regimes  []Tally
	Models   []Tally
}

// Throughput returns completed predictions per second.
func (r *Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Duration.Seconds()
}

// regimes indexes every item of both streams by regime, so the hot loop
// tallies into a flat slice instead of hashing a name per request.
func (s *Stream) regimes() (names []string, clean, shifted []int, err error) {
	if len(s.Items) == 0 {
		return nil, nil, nil, errors.New("loadgen: empty request stream")
	}
	if s.Shifted != nil && len(s.Shifted) != len(s.Items) {
		return nil, nil, nil, fmt.Errorf("loadgen: shifted stream has %d items, clean stream %d", len(s.Shifted), len(s.Items))
	}
	index := func(items []serve.WorkItem) []int {
		out := make([]int, len(items))
		for i, it := range items {
			k := slices.Index(names, it.Regime)
			if k < 0 {
				k = len(names)
				names = append(names, it.Regime)
			}
			out[i] = k
		}
		return out
	}
	clean, shifted = index(s.Items), index(s.Shifted)
	return names, clean, shifted, nil
}

// armed is a Trigger with its marks resolved for one run.
type armed struct {
	Trigger
	count int64     // request-count mark
	at    time.Time // wall-clock mark; zero without a MaxDuration
	fired atomic.Bool
	err   error // Fire's; written by the firing worker, read after the join
}

// Run replays p.Stream against tgt and returns the aggregate result.
// Cancelling ctx ends the run within one request per worker; the partial
// result is returned and unfired triggers are then not an error.
func Run(ctx context.Context, tgt Target, p Plan) (*Result, error) {
	p = p.withDefaults()
	names, cleanIdx, shiftedIdx, err := p.Stream.regimes()
	if err != nil {
		return nil, err
	}
	n := int64(len(p.Stream.Items))
	total := n * int64(p.Repeat)
	models := int64(len(p.Models))
	interval := time.Duration(0)
	if p.TargetQPS > 0 {
		interval = time.Duration(float64(time.Second) / p.TargetQPS)
	}

	start := time.Now()
	deadline := time.Time{}
	if p.MaxDuration > 0 {
		deadline = start.Add(p.MaxDuration)
	}
	arms := make([]armed, len(p.Triggers))
	for k, t := range p.Triggers {
		if !(t.At > 0 && t.At < 1) {
			return nil, fmt.Errorf("loadgen: trigger fraction must be in (0,1), got %g", t.At)
		}
		arms[k].Trigger = t
		arms[k].count = int64(t.At * float64(total))
		if p.MaxDuration > 0 {
			arms[k].at = start.Add(time.Duration(t.At * float64(p.MaxDuration)))
		}
	}

	type worker struct {
		groups           []Tally // [regime*models + model]
		lats             []time.Duration
		errors, rejected uint64
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		workers = make([]worker, p.Concurrency)
	)
	for w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.groups = make([]Tally, len(names)*len(p.Models))
			// root is reused across iterations: EndAt copies the record into
			// the tracer's ring, so the traced path allocates nothing per
			// request, and it rides the instants the loop reads anyway.
			var root telemetry.Span
			// Deadline and time marks are checked against the previous
			// iteration's completion instant instead of a fresh clock read:
			// at batched-pipeline throughput an extra time.Now per request
			// is a measurable tax, and both need only request granularity.
			var now time.Time
			for {
				i := next.Add(1) - 1
				if i >= total || ctx.Err() != nil || (!deadline.IsZero() && now.After(deadline)) {
					return
				}
				for k := range arms {
					a := &arms[k]
					if (i >= a.count || (!a.at.IsZero() && now.After(a.at))) && a.fired.CompareAndSwap(false, true) {
						a.err = a.Fire(i)
					}
				}
				if interval > 0 {
					if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				}
				at := i % n
				item, regime := &p.Stream.Items[at], cleanIdx[at]
				if p.Stream.on.Load() {
					item, regime = &p.Stream.Shifted[at], shiftedIdx[at]
				}
				model := i % models
				t0 := time.Now()
				p.Tracer.BeginAt(&root, "loadgen.predict", telemetry.SpanContext{}, t0)
				ans, err := tgt.Predict(ctx, p.Models[model], item.X, &root, t0)
				lat := time.Since(t0)
				now = t0.Add(lat)
				if p.Tracer != nil {
					root.SetError(err)
					root.EndAt(now)
				}
				if err != nil {
					if errors.Is(err, serve.ErrOverloaded) {
						w.rejected++
					} else {
						w.errors++
					}
					continue
				}
				w.lats = append(w.lats, lat)
				g := &w.groups[int64(regime)*models+model]
				g.Requests++
				if ans.Class == item.Y {
					g.Correct++
				}
				if ans.Matched {
					g.Matched++
				}
				if ans.GatewayCached {
					g.GatewayCached++
				}
				if item.Assigned >= 0 {
					g.AssignedKnown++
					if ans.Expert == item.Assigned {
						g.RoutedToAssigned++
					}
				}
			}
		}(&workers[w])
	}
	wg.Wait()
	out := &Result{Duration: time.Since(start)}

	for k := range arms {
		a := &arms[k]
		switch {
		case a.err != nil:
			return nil, a.err
		case !a.fired.Load() && ctx.Err() == nil:
			return nil, a.TooLate
		}
	}

	out.Regimes = make([]Tally, len(names))
	out.Models = make([]Tally, len(p.Models))
	var all []time.Duration
	for _, w := range workers {
		out.Errors += w.errors
		out.Rejected += w.rejected
		all = append(all, w.lats...)
		for g, t := range w.groups {
			out.Tally.add(t)
			out.Regimes[g/len(p.Models)].add(t)
			out.Models[g%len(p.Models)].add(t)
		}
	}
	out.Latency = summarize(all)
	for k := range out.Regimes {
		out.Regimes[k].Name = names[k]
	}
	for k := range out.Models {
		out.Models[k].Name = p.Models[k]
	}
	for _, ts := range []*[]Tally{&out.Regimes, &out.Models} {
		*ts = slices.DeleteFunc(*ts, func(t Tally) bool { return t.Requests == 0 })
		slices.SortFunc(*ts, func(a, b Tally) int { return strings.Compare(a.Name, b.Name) })
	}
	return out, nil
}
