package bench

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/facility"
	"repro/internal/fl"
	"repro/internal/service"
	"repro/internal/shiftex"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// timedPolicy is the default policy with a timing decorator around every
// stage. It is registered under a benchmark-only name and used by traced
// passes only; the untraced workload runs the plain default policy.
const timedPolicy = "bench-timed"

// windowScope is where the stage and transport decorators record: the tracer
// and the window span their spans nest under. The aggregator calls stages
// without any context, so the scope of the one window in flight is published
// here by the pass that runs it.
type windowScope struct {
	tr  *tracer
	id  int32
	req int64
}

var currentWindow atomic.Pointer[windowScope]

// stage starts a span under the window in flight and returns the function
// that ends it; it is a no-op outside a traced pass.
func stage(name string) func() {
	sc := currentWindow.Load()
	if sc == nil {
		return func() {}
	}
	id := sc.tr.open(name, sc.req, sc.id, time.Now())
	return func() { sc.tr.close(id, time.Now()) }
}

type timedDetector struct{ adapt.ShiftDetector }

func (d timedDetector) Detect(st detect.PartyStats, th stats.Thresholds) (bool, bool) {
	defer stage("adapt.detect")()
	return d.ShiftDetector.Detect(st, th)
}

type timedCalibrator struct{ adapt.Calibrator }

func (c timedCalibrator) Calibrate(anchor []detect.PartyStats, cfg stats.CalibrateConfig, eps float64, rng *tensor.RNG) (stats.Thresholds, float64, error) {
	defer stage("adapt.calibrate")()
	return c.Calibrator.Calibrate(anchor, cfg, eps, rng)
}

type timedSolver struct{ adapt.AssignmentSolver }

func (s timedSolver) Solve(in *facility.Instance) (*facility.Assignment, error) {
	defer stage("adapt.assign")()
	return s.AssignmentSolver.Solve(in)
}

type timedPlanner struct{ adapt.TrainingPlanner }

func (p timedPlanner) Plan(cohorts map[int][]int, hists []stats.Histogram, rng *tensor.RNG) (adapt.ParticipantSelector, error) {
	defer stage("adapt.plan")()
	return p.TrainingPlanner.Plan(cohorts, hists, rng)
}

type timedConsolidator struct{ adapt.Consolidator }

func (c timedConsolidator) Consolidate(pool adapt.ExpertPool, arch []int, tau, eps float64, cohort map[int]int) (map[int]int, error) {
	defer stage("adapt.consolidate")()
	return c.Consolidator.Consolidate(pool, arch, tau, eps, cohort)
}

func init() {
	adapt.RegisterPolicy(adapt.PolicyFactory{
		Name:        timedPolicy,
		Description: "benchmark only: the default policy with a timing span around every stage",
		New: func() (*adapt.Policy, error) {
			p := adapt.DefaultPolicy()
			p.Detector = timedDetector{p.Detector}
			p.Calibrator = timedCalibrator{p.Calibrator}
			p.Solver = timedSolver{p.Solver}
			p.Planner = timedPlanner{p.Planner}
			p.Consolidator = timedConsolidator{p.Consolidator}
			return p, nil
		},
	})
}

// countedTransport decorates a service.Transport: a span and a count per wire
// call, failed calls (each one costs the fan-out a retry), and the payload the
// call moves — computed as 8 bytes per float64 parameter sent or returned,
// not read off the socket.
type countedTransport struct {
	service.Transport
	train, stats, eval atomic.Int64
	failed             atomic.Int64
	payload            atomic.Int64
}

func (t *countedTransport) note(err error, floats int) {
	if err != nil {
		t.failed.Add(1)
	}
	t.payload.Add(8 * int64(floats))
}

func (t *countedTransport) Train(party int, arch []int, global tensor.Vector, cfg fl.TrainConfig) (fl.Update, error) {
	defer stage("fl.train")()
	t.train.Add(1)
	u, err := t.Transport.Train(party, arch, global, cfg)
	t.note(err, len(global)+len(u.Params))
	return u, err
}

func (t *countedTransport) Stats(party int, arch []int, encoder tensor.Vector, numClasses int, seed uint64) (detect.PartyStats, error) {
	defer stage("fl.stats")()
	t.stats.Add(1)
	s, err := t.Transport.Stats(party, arch, encoder, numClasses, seed)
	t.note(err, len(encoder))
	return s, err
}

func (t *countedTransport) Eval(party int, arch []int, params tensor.Vector) (float64, error) {
	defer stage("fl.eval")()
	t.eval.Add(1)
	acc, err := t.Transport.Eval(party, arch, params)
	t.note(err, len(params))
	return acc, err
}

// pass runs the whole scenario on a fresh runtime over t, one window per op,
// writing each window's latency to lat. With a tracer, every window is a root
// span that the stage and transport decorators nest under.
func pass(t service.Transport, opts service.Options, lat []int64, tr *tracer, passNo int) (rt *service.Runtime, failed int, err error) {
	rt, err = service.NewRuntime(t, opts)
	if err != nil {
		return nil, opts.Windows, err
	}
	defer currentWindow.Store(nil)
	for w := 0; w < opts.Windows; w++ {
		req := int64(passNo*opts.Windows + w)
		t0 := time.Now()
		id := tr.open("service.window", req, 0, t0)
		if tr != nil {
			currentWindow.Store(&windowScope{tr: tr, id: id, req: req})
		}
		_, err = rt.RunWindow(w)
		t1 := time.Now()
		tr.close(id, t1)
		lat[w] = int64(t1.Sub(t0))
		if err != nil {
			return rt, opts.Windows - w, fmt.Errorf("window %d: %w", w, err)
		}
	}
	return rt, 0, nil
}

// outcome is everything a pass decided, compared exactly between passes and
// between transports: the bit-identity contract of the service layer.
type outcome struct {
	Assignments map[int]int
	ExpertIDs   []int
	Traces      [][]float64
	Created     int
	Merged      int
	Shifted     int
}

func outcomeOf(rt *service.Runtime) outcome {
	o := outcome{Assignments: rt.Aggregator().Assignments(), ExpertIDs: rt.Aggregator().Registry().IDs()}
	for _, r := range rt.Reports() {
		o.Traces = append(o.Traces, r.Trace)
		o.Created += r.NewExperts
		o.Merged += r.Merged
		o.Shifted += r.ShiftedCov + r.ShiftedLabel
	}
	return o
}

// accuracy is the windows' mean assigned-expert accuracy: the last round's
// accuracy of every window, averaged.
func (o outcome) accuracy() float64 {
	finals := make([]float64, 0, len(o.Traces))
	for _, tr := range o.Traces {
		if len(tr) > 0 {
			finals = append(finals, tr[len(tr)-1])
		}
	}
	return shiftex.MeanAccuracy(finals)
}

// adaptWorkload is adapt-fl-tcp: the paper's loop in its native setting. One
// op is one window; one segment is one full scenario pass on a fresh runtime
// and a fresh loopback fleet (party servers keep detector and stream state).
type adaptWorkload struct {
	hidden []int
	sc     *dataset.Scenario
	opts   service.Options
	seed   uint64
	first  *outcome // the first pass's outcome; every later pass must equal it
}

func (w *adaptWorkload) ops() int { return windows }

// limit is four times a window's median on the reference host.
func (w *adaptWorkload) limit() time.Duration { return time.Second }

// setup brings the deployment up once: the aggregator and each of the eight
// party daemons generate the scenario (every participant of a real deployment
// regenerates it from the seed; nothing crosses the wire), the daemons listen
// and answer a ping, the runtime is constructed.
func (w *adaptWorkload) setup(string) error {
	sc, err := buildScenario()
	if err != nil {
		return err
	}
	for p := 0; p < parties; p++ {
		if _, err := buildScenario(); err != nil {
			return err
		}
	}
	w.sc, w.opts = sc, runtimeOptions(sc, w.hidden, "")
	t, stop, err := tcpFleet(sc, fixtureSeed)
	if err != nil {
		return err
	}
	defer stop()
	_, err = service.NewRuntime(t, w.opts)
	return err
}

func (w *adaptWorkload) prepare(seed uint64) error { w.seed = seed; return nil }
func (w *adaptWorkload) markStart()                {}
func (w *adaptWorkload) close()                    {}

func (w *adaptWorkload) segment(lat []int64, tr *tracer, segNo int) segment {
	opts := w.opts
	var t service.Transport
	fleet, stop, err := tcpFleet(w.sc, w.seed)
	if err != nil {
		return segment{tally: tally{attempted: windows, failed: windows}}
	}
	defer stop()
	t = fleet
	if tr != nil {
		opts.Policy = timedPolicy
		t = &countedTransport{Transport: fleet}
	}
	var rt *service.Runtime
	seg := measure(func() tally {
		var failed int
		rt, failed, err = pass(t, opts, lat, tr, segNo)
		return tally{attempted: windows, failed: failed}
	})
	if err != nil {
		return seg
	}
	o := outcomeOf(rt)
	if w.first == nil {
		w.first = &o
	} else if !reflect.DeepEqual(*w.first, o) {
		seg.failed = windows // the pass decided differently from the first: not the same work
	}
	return seg
}

func (w *adaptWorkload) accuracy() float64 {
	if w.first == nil {
		return 0
	}
	return w.first.accuracy()
}

func (w *adaptWorkload) check() []string { return nil }
