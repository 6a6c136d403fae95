package loadgen

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The three at-fraction triggers' too-late errors: the workload ended before
// the mark, so the run cannot serve as the evidence it was asked to be.
// Lengthen it (higher Repeat or a MaxDuration) instead of trusting it.
var (
	ErrSwapTooLate  = errors.New("loadgen: load finished before the mid-load swap could fire")
	ErrShiftTooLate = errors.New("loadgen: load finished before the shift could be injected")
	ErrKillTooLate  = errors.New("loadgen: load finished before the mid-load kill could fire")
)

// Options is the protocol of the in-process benchmarks. The embedded scenario
// shape must match the checkpointed training run's.
type Options struct {
	serve.LoadConfig
	Pacing
	// SwapMidLoad hot-swaps a freshly built snapshot of the same checkpoint
	// halfway through the run, exercising the zero-drop swap path under
	// live traffic.
	SwapMidLoad bool
	// ShiftAt, in (0, 1), injects a covariate regime change after that
	// fraction of the run: requests claimed beyond it replay
	// ShiftCorruption-transformed inputs. Zero disables injection.
	ShiftAt float64
	// ShiftCorruption is the injected transform; the identity (zero value)
	// selects frost/5 — fully deterministic per input, so replayed passes
	// of the shifted stream are identical.
	ShiftCorruption dataset.Corruption
}

func defaultShift(c dataset.Corruption) dataset.Corruption {
	if c.IsIdentity() {
		return dataset.Corruption{Kind: dataset.CorruptFrost, Severity: 5}
	}
	return c
}

// plan resolves the options' defaults in place and lays them out as a Plan.
func (o *Options) plan(stream *Stream, tracer *telemetry.Tracer) Plan {
	p := Plan{Stream: stream, Pacing: o.Pacing, Tracer: tracer}.withDefaults()
	o.LoadConfig, o.Pacing = o.LoadConfig.WithDefaults(), p.Pacing
	o.ShiftCorruption = defaultShift(o.ShiftCorruption)
	return p
}

// Shifted derives the stream's shifted replica. Every benchmark injects the
// same regime for the same (items, corruption, seed), so frozen, live and
// post-swap passes score identical inputs.
func Shifted(items []serve.WorkItem, corr dataset.Corruption, seed uint64) []serve.WorkItem {
	rng := tensor.NewRNG(seed ^ 0xd21f7)
	regime := "shifted:" + corr.String()
	out := make([]serve.WorkItem, len(items))
	for i, it := range items {
		it.X = corr.Apply(it.X, rng)
		it.Regime = regime
		out[i] = it
	}
	return out
}

// ServeRun is one in-process load run: the driver's result, the protocol and
// server configuration it ran under (defaults resolved), the server-side
// counters at its end, and the shift trigger's record.
type ServeRun struct {
	*Result
	Options Options
	Config  serve.Config
	Server  serve.MetricsSnapshot
	// ShiftTeedSamples is the monitor's cumulative teed-sample counter at
	// the injection instant — the zero point detection latency is measured
	// from.
	ShiftTeedSamples uint64
}

// ServeLoad replays the checkpoint's scenario stream against srv, which must
// be serving a snapshot built from cp (the workload and routing ground truth
// are regenerated from the checkpoint's seed and assignment). Requests root
// a span each when srv has a tracer.
func ServeLoad(ctx context.Context, srv *serve.Server, cp *service.Checkpoint, o Options) (*ServeRun, error) {
	items, err := serve.Workload(cp, o.LoadConfig)
	if err != nil {
		return nil, err
	}
	run := &ServeRun{Config: srv.Config()}
	stream := &Stream{Items: items}
	plan := o.plan(stream, run.Config.Tracer)
	if o.SwapMidLoad {
		// Built before the run, so the trigger is the swap alone.
		snap, err := serve.SnapshotFromCheckpoint(cp)
		if err != nil {
			return nil, err
		}
		plan.Triggers = append(plan.Triggers, Trigger{At: 0.5, TooLate: ErrSwapTooLate,
			Fire: func(int64) error { return srv.Swap(snap) }})
	}
	if o.ShiftAt > 0 {
		stream.Shifted = Shifted(items, o.ShiftCorruption, cp.Seed)
		plan.Triggers = append(plan.Triggers, Trigger{At: o.ShiftAt, TooLate: ErrShiftTooLate,
			Fire: func(int64) error {
				if mon := run.Config.Monitor; mon != nil {
					run.ShiftTeedSamples = mon.Teed()
				}
				stream.Shift()
				return nil
			}})
	}
	if run.Result, err = Run(ctx, ServerTarget{srv}, plan); err != nil {
		return nil, err
	}
	run.Options = o
	run.Server = srv.Metrics().Snapshot()
	return run, nil
}

// NewServer starts a server on a fresh snapshot of the checkpoint.
func NewServer(cp *service.Checkpoint, cfg serve.Config) (*serve.Server, error) {
	snap, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		return nil, err
	}
	return serve.NewServer(snap, cfg)
}

// freshServeLoad is one trial of a paired benchmark: ServeLoad against a
// server built for it and torn down after.
func freshServeLoad(ctx context.Context, cp *service.Checkpoint, o Options, cfg serve.Config) (*ServeRun, error) {
	srv, err := NewServer(cp, cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	return ServeLoad(ctx, srv, cp, o)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// Artifact converts the run into the versioned BENCH_serving.json form. A
// run with the route cache disabled is a cold-traffic run and takes the
// "serving-cold" name — it lands in BENCH_serving-cold.json and carries the
// coldTraffic flag, so the honest no-cache number can never be mistaken for
// the warm one.
func (r *ServeRun) Artifact(cp *service.Checkpoint) *experiments.ServingArtifact {
	o, cfg := r.Options, r.Config
	cold := cfg.CacheSize < 0
	name := experiments.ServingArtifactName
	if cold {
		name = experiments.ServingColdArtifactName
	}
	a := &experiments.ServingArtifact{
		Schema: experiments.ServingSchemaVersion,
		Name:   name,
		Options: experiments.ServingOptions{
			CheckpointWindows: cp.WindowsDone,
			Parties:           len(cp.Aggregator.Assignment),
			SamplesPerParty:   o.SamplesPerParty,
			TestPerParty:      o.TestPerParty,
			Seed:              cp.Seed,
			TargetQPS:         o.TargetQPS,
			Concurrency:       o.Concurrency,
			Repeat:            o.Repeat,
			Workers:           cfg.Workers,
			MaxBatch:          cfg.MaxBatch,
			MaxDelayMs:        ms(cfg.MaxDelay),
			CacheSize:         cfg.CacheSize,
			RouteEpsilonScale: cfg.RouteEpsilonScale,
			SwapMidLoad:       o.SwapMidLoad,
			ColdTraffic:       cold,
		},
		Requests:         r.Requests,
		Errors:           r.Errors,
		Rejected:         r.Rejected,
		DurationMs:       ms(r.Duration),
		ThroughputPerSec: r.Throughput(),
		LatencyMsP50:     ms(r.Latency.P50),
		LatencyMsP90:     ms(r.Latency.P90),
		LatencyMsP99:     ms(r.Latency.P99),
		LatencyMsMax:     ms(r.Latency.Max),
		Accuracy:         r.Accuracy(),
		RoutedToAssigned: r.RoutingAccuracy(),
		CacheHitRate:     ratio(r.Server.CacheHits, r.Server.CacheHits+r.Server.CacheMisses),
		Swaps:            r.Server.Swaps,
		MeanBatch:        r.Server.MeanBatch,
	}
	for _, g := range r.Regimes {
		a.Regimes = append(a.Regimes, experiments.ServingRegime{
			Regime:           g.Name,
			Requests:         int(g.Requests),
			Accuracy:         g.Accuracy(),
			RoutedToAssigned: g.RoutingAccuracy(),
			MatchedFraction:  ratio(g.Matched, g.Requests),
		})
	}
	return a
}

// TracingBench measures the request-path cost of tracing: PairedTrials of
// the same workload against fresh servers, untraced versus every request
// rooting a span and the pipeline recording route and batch spans into a
// ring of ringSize. The artifact carries both throughputs and the overhead
// percentage its gate enforces.
func TracingBench(ctx context.Context, cp *service.Checkpoint, o Options, cfg serve.Config, ringSize, trials int) (*experiments.TracingArtifact, error) {
	o.SwapMidLoad = false
	if ringSize <= 0 {
		ringSize = telemetry.DefaultRingSize
	}
	trial := func(tr *telemetry.Tracer) (*ServeRun, error) {
		cfg.Tracer = tr
		return freshServeLoad(ctx, cp, o, cfg)
	}
	p, err := PairedTrials(trials,
		func() (*ServeRun, error) { return trial(nil) },
		func() (*ServeRun, uint64, error) {
			tracer := telemetry.NewTracer("serve", ringSize)
			run, err := trial(tracer)
			return run, tracer.SpanCount(), err
		})
	if err != nil {
		return nil, fmt.Errorf("tracing bench: %w", err)
	}
	o, cfg = p.Treated.Options, p.Treated.Config
	return &experiments.TracingArtifact{
		Schema: experiments.TracingSchemaVersion,
		Name:   experiments.TracingArtifactName,
		Options: experiments.TracingOptions{
			CheckpointWindows: cp.WindowsDone,
			Arch:              cp.Arch,
			Parties:           len(cp.Aggregator.Assignment),
			SamplesPerParty:   o.SamplesPerParty,
			TestPerParty:      o.TestPerParty,
			Seed:              cp.Seed,
			Concurrency:       o.Concurrency,
			Repeat:            o.Repeat,
			Workers:           cfg.Workers,
			MaxBatch:          cfg.MaxBatch,
			MaxDelayMs:        ms(cfg.MaxDelay),
			CacheSize:         cfg.CacheSize,
			RingSize:          ringSize,
			Trials:            p.Trials,
		},
		BaselineRequests:         p.Baseline.Requests,
		BaselineDurationMs:       ms(p.Baseline.Duration),
		BaselineThroughputPerSec: p.Baseline.Throughput(),
		BaselineLatencyMsP99:     ms(p.Baseline.Latency.P99),
		TracedRequests:           p.Treated.Requests,
		TracedDurationMs:         ms(p.Treated.Duration),
		TracedThroughputPerSec:   p.Treated.Throughput(),
		TracedLatencyMsP99:       ms(p.Treated.Latency.P99),
		SpansRecorded:            p.Extra,
		OverheadPercent:          p.OverheadPercent(),
	}, nil
}

// FirstCrossing returns the first evaluation past the shift watermark whose
// score crossed the threshold — the detection. Both are compared in the tee
// clock (ev.TeedAt), the clock the watermark was read in: the folded count
// lags it when backpressure drops samples.
func FirstCrossing(evals []monitor.Evaluation, watermark uint64) (monitor.Evaluation, bool) {
	for _, ev := range evals {
		if ev.Err == "" && ev.Crossed && ev.TeedAt > watermark {
			return ev, true
		}
	}
	return monitor.Evaluation{}, false
}

// monitored is what a drift-bench trial keeps of its monitor.
type monitored struct {
	sum   *monitor.Summary
	evals []monitor.Evaluation
	cfg   monitor.Config
}

// DriftBench measures the drift monitor end to end: PairedTrials of the same
// cold (cache-disabled) workload with a corruption injected at ShiftAt of
// the run, unmonitored versus every batch-routed embedding teed into a
// monitor. The cache is forced off because cache hits skip embedding and so
// are invisible to the monitor; cold traffic is the honest coverage
// condition (and what the committed cold serving baseline measures).
//
// Detection is read from the best monitored trial: the watermark is the
// monitor's teed-sample count at the injection instant, detection is the
// first evaluation past the watermark whose score crossed the threshold,
// and any crossing at or before the watermark is a false positive the
// CheckDrift gate rejects.
func DriftBench(ctx context.Context, cp *service.Checkpoint, o Options, cfg serve.Config, monCfg monitor.Config, trials int) (*experiments.DriftArtifact, error) {
	o.SwapMidLoad = false
	if o.ShiftAt <= 0 {
		o.ShiftAt = 0.5
	}
	cfg.CacheSize = -1
	trial := func(mon *monitor.Monitor) (*ServeRun, error) {
		cfg.Monitor = mon
		return freshServeLoad(ctx, cp, o, cfg)
	}
	p, err := PairedTrials(trials,
		func() (*ServeRun, error) { return trial(nil) },
		func() (*ServeRun, monitored, error) {
			mon := monitor.New(monCfg)
			defer mon.Close()
			run, err := trial(mon)
			if err != nil {
				return nil, monitored{}, err
			}
			// Drain everything still queued and force a final evaluation
			// so the trial's verdict covers its whole stream.
			mon.Flush()
			return run, monitored{mon.Summary(), mon.Evaluations(0, -1), mon.Config()}, nil
		})
	if err != nil {
		return nil, fmt.Errorf("drift bench: %w", err)
	}
	m := p.Extra
	if m.sum.Samples == 0 {
		return nil, fmt.Errorf("drift bench: monitor folded no samples (teed %d, dropped %d)", m.sum.Teed, m.sum.Dropped)
	}
	if !m.sum.Calibrated {
		return nil, fmt.Errorf("drift bench: monitor never calibrated (%d samples folded, baseline needs %d): %s",
			m.sum.Samples, m.cfg.BaselineSize, m.sum.CalibrationError)
	}

	o, cfg = p.Treated.Options, p.Treated.Config
	a := &experiments.DriftArtifact{
		Schema: experiments.DriftSchemaVersion,
		Name:   experiments.DriftArtifactName,
		Options: experiments.DriftOptions{
			CheckpointWindows: cp.WindowsDone,
			Arch:              cp.Arch,
			Parties:           len(cp.Aggregator.Assignment),
			SamplesPerParty:   o.SamplesPerParty,
			TestPerParty:      o.TestPerParty,
			Seed:              cp.Seed,
			Concurrency:       o.Concurrency,
			Repeat:            o.Repeat,
			Workers:           cfg.Workers,
			MaxBatch:          cfg.MaxBatch,
			MaxDelayMs:        ms(cfg.MaxDelay),
			ShiftAt:           o.ShiftAt,
			ShiftKind:         o.ShiftCorruption.String(),
			ShiftSeverity:     o.ShiftCorruption.Severity,
			EvalEvery:         m.cfg.EvalEvery,
			SampleEvery:       m.cfg.SampleEvery,
			BaselineSize:      m.cfg.BaselineSize,
			WindowSize:        m.cfg.WindowSize,
			Threshold:         m.cfg.Threshold,
			Resamples:         m.cfg.Calibrate.Resamples,
			Trials:            p.Trials,
		},
		BaselineRequests:          p.Baseline.Requests,
		BaselineDurationMs:        ms(p.Baseline.Duration),
		BaselineThroughputPerSec:  p.Baseline.Throughput(),
		MonitoredRequests:         p.Treated.Requests,
		MonitoredDurationMs:       ms(p.Treated.Duration),
		MonitoredThroughputPerSec: p.Treated.Throughput(),
		OverheadPercent:           p.OverheadPercent(),
		SamplesSeen:               m.sum.Samples,
		SamplesDropped:            m.sum.Dropped,
		Evals:                     m.sum.Evals,
		ShiftAtSample:             p.Treated.ShiftTeedSamples,
		Delta:                     m.sum.Delta,
	}
	for _, ev := range m.evals {
		if ev.Err != "" {
			continue
		}
		a.MaxScore = max(a.MaxScore, ev.Score)
		if ev.Crossed && ev.TeedAt <= a.ShiftAtSample {
			a.FalsePositives++
		}
	}
	if ev, ok := FirstCrossing(m.evals, a.ShiftAtSample); ok {
		a.Detected = true
		a.DetectedAtSample = ev.TeedAt
		a.DetectionLatencySamples = ev.TeedAt - a.ShiftAtSample
		a.ScoreAtDetection = ev.Score
	}
	return a, nil
}
