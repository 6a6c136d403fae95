package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// subcommands are the modes that run or check a load benchmark; anything
// else on the command line is the flag-only grid invocation.
var subcommands = map[string]func(args []string) error{
	"serve-load":   loadMode("serve-load", serveLoad),
	"trace":        loadMode("trace", traceBench),
	"drift":        loadMode("drift", driftBench),
	"adapt-live":   loadMode("adapt-live", adaptLive),
	"gateway-load": loadMode("gateway-load", gatewayLoad),
	"check":        check,
}

// benchRun is a configured benchmark: it runs against the loaded checkpoint
// and returns the artifact to emit and the gate thresholds to hold it to.
type benchRun func(ctx context.Context, cp *service.Checkpoint) (experiments.Record, experiments.Gates, error)

// loadMode is the frame every load benchmark shares: bind registers the
// mode's own flags on fs and returns the run they configure.
func loadMode(name string, bind func(fs *flag.FlagSet) benchRun) func(args []string) error {
	return func(args []string) error {
		fs := flag.NewFlagSet("shiftex-bench "+name, flag.ContinueOnError)
		checkpoint := fs.String("checkpoint", "", "aggregator checkpoint served in-process, or by the gateway's replicas (required; written by shiftex-aggregator -checkpoint)")
		jsonDir := fs.String("json", "", "write the BENCH_<name>.json artifact into this directory (empty = don't write)")
		run := bind(fs)
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *checkpoint == "" {
			return errors.New("-checkpoint PATH is required\n  produce one with: shiftex-aggregator -load 8 -windows 3 -seed 42 -checkpoint ckpt.json")
		}
		cp, err := service.LoadCheckpoint(*checkpoint)
		if err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		a, gates, err := run(ctx, cp)
		if err != nil {
			return err
		}
		// Written before the gate, so a failing run still leaves its
		// evidence behind.
		fmt.Println(a.Summary())
		if *jsonDir != "" {
			path, err := writeArtifact(*jsonDir, a)
			if err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
		return a.Gate(gates)
	}
}

func writeArtifact(dir string, a experiments.Record) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return experiments.WriteArtifactFile(dir, a)
}

// The flag groups the modes share, each bound straight into the option
// struct it configures.

func bindShape(fs *flag.FlagSet, c *serve.LoadConfig) {
	fs.IntVar(&c.SamplesPerParty, "samples", 120, "scenario training samples per party per window (must match the checkpointed run)")
	fs.IntVar(&c.TestPerParty, "test", 60, "scenario test samples per party per window (must match the checkpointed run)")
}

func bindConcurrency(fs *flag.FlagSet, n *int) {
	fs.IntVar(n, "concurrency", 0, "client goroutines (0 = two per core)")
}

func bindPacing(fs *flag.FlagSet, p *loadgen.Pacing, repeat int) {
	bindConcurrency(fs, &p.Concurrency)
	fs.Float64Var(&p.TargetQPS, "qps", 0, "target aggregate QPS (0 = open loop, as fast as possible)")
	fs.IntVar(&p.Repeat, "repeat", repeat, "passes over the scenario's request stream (later passes exercise the route cache)")
	fs.DurationVar(&p.MaxDuration, "duration", 0, "time budget (0 = run the full stream)")
}

func bindTrials(fs *flag.FlagSet) *int {
	return fs.Int("trials", loadgen.DefaultTrials, "interleaved baseline/treated trial pairs; each side reports its best trial")
}

// bindShift registers the injected corruption (and, with at, where in the
// run it is injected) and returns its resolver.
func bindShift(fs *flag.FlagSet, at *float64) func() (dataset.Corruption, error) {
	if at != nil {
		fs.Float64Var(at, "shift-at", 0, "inject a covariate regime change after this fraction of the run (0 = no shift)")
	}
	kind := fs.String("shift-kind", "frost", "corruption family to inject (fog, rain, snow, frost, blur, noise, rotate, scale, jitter)")
	severity := fs.Int("shift-severity", 5, "corruption severity, 1 (mild) to 5 (harsh)")
	return func() (dataset.Corruption, error) {
		var valid []string
		for k := dataset.CorruptFog; k <= dataset.CorruptJitter; k++ {
			if k.String() == *kind {
				return dataset.Corruption{Kind: k, Severity: *severity}, nil
			}
			valid = append(valid, k.String())
		}
		return dataset.Corruption{}, fmt.Errorf("unknown -shift-kind %q (valid: %s)", *kind, strings.Join(valid, ", "))
	}
}

// serveLoad replays the checkpoint run's scenario stream against an
// in-process server and records BENCH_serving.json (BENCH_serving-cold.json
// with -cold). With -shift-at a drift monitor is attached and the run also
// reports whether it caught the injected regime change.
func serveLoad(fs *flag.FlagSet) benchRun {
	var (
		o      loadgen.Options
		cfg    serve.Config
		monCfg monitor.Config
	)
	bindShape(fs, &o.LoadConfig)
	bindPacing(fs, &o.Pacing, 3)
	corruption := bindShift(fs, &o.ShiftAt)
	cfg.BindFlags(fs)
	monCfg.BindFlags(fs)
	cold := fs.Bool("cold", false, "disable the route cache so every request pays the full batched routing + inference path; the artifact is written as BENCH_serving-cold.json")
	fs.BoolVar(&o.SwapMidLoad, "swap-mid-load", false, "hot-swap a fresh snapshot of the same checkpoint halfway through")
	return func(ctx context.Context, cp *service.Checkpoint) (_ experiments.Record, _ experiments.Gates, err error) {
		if o.ShiftCorruption, err = corruption(); err != nil {
			return
		}
		if *cold {
			// A disabled cache is what makes the benchmark honest about
			// compute throughput, so -cold overrides -cache.
			cfg.CacheSize = -1
		}
		// The monitor rides only shift-injection runs, so plain benchmark
		// replays stay untouched.
		if o.ShiftAt > 0 {
			cfg.Monitor = monitor.New(monCfg)
			defer cfg.Monitor.Close()
		}
		srv, err := loadgen.NewServer(cp, cfg)
		if err != nil {
			return
		}
		run, err := loadgen.ServeLoad(ctx, srv, cp, o)
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return
		}
		if mon := cfg.Monitor; mon != nil {
			mon.Flush()
			sum := mon.Summary()
			fmt.Printf("drift monitor: %d samples folded (%d teed, %d dropped), %d evals, calibrated=%t, score=%.3f/%.3g\n",
				sum.Samples, sum.Teed, sum.Dropped, sum.Evals, sum.Calibrated, sum.Score, sum.Threshold)
			if at, ok := loadgen.FirstCrossing(mon.Evaluations(0, -1), run.ShiftTeedSamples); ok {
				fmt.Printf("drift detected: shift at sample %d, crossed at sample %d (latency %d samples)\n",
					run.ShiftTeedSamples, at.TeedAt, at.TeedAt-run.ShiftTeedSamples)
			} else {
				fmt.Printf("drift NOT detected: shift at sample %d, max score %.3f\n", run.ShiftTeedSamples, sum.Score)
			}
		}
		return run.Artifact(cp), experiments.Gates{}, nil
	}
}

// traceBench measures tracing overhead as interleaved untraced/traced trial
// pairs against in-process servers and records BENCH_tracing.json.
func traceBench(fs *flag.FlagSet) benchRun {
	var (
		o   loadgen.Options
		cfg serve.Config
	)
	bindShape(fs, &o.LoadConfig)
	bindPacing(fs, &o.Pacing, 3)
	cfg.BindFlags(fs)
	trials := bindTrials(fs)
	ringSize := fs.Int("trace-buffer", telemetry.DefaultRingSize, "span ring-buffer capacity in the traced trials")
	maxOverhead := fs.Float64("max-overhead", 5, "fail when tracing costs more than this percent of baseline throughput")
	return func(ctx context.Context, cp *service.Checkpoint) (experiments.Record, experiments.Gates, error) {
		a, err := loadgen.TracingBench(ctx, cp, o, cfg, *ringSize, *trials)
		return a, experiments.Gates{MaxTracingOverhead: *maxOverhead}, err
	}
}

// driftBench measures detection latency and monitoring overhead as
// interleaved unmonitored/monitored cold trials with an injected shift and
// records BENCH_drift.json.
func driftBench(fs *flag.FlagSet) benchRun {
	var (
		o      loadgen.Options
		cfg    serve.Config
		monCfg monitor.Config
	)
	bindShape(fs, &o.LoadConfig)
	bindPacing(fs, &o.Pacing, 3)
	corruption := bindShift(fs, &o.ShiftAt)
	cfg.BindFlags(fs)
	monCfg.BindFlags(fs)
	trials := bindTrials(fs)
	maxOverhead := fs.Float64("max-drift-overhead", 3, "fail when monitoring costs more than this percent of baseline throughput, the shift went undetected, or any pre-shift false positive crossed")
	return func(ctx context.Context, cp *service.Checkpoint) (_ experiments.Record, _ experiments.Gates, err error) {
		if o.ShiftCorruption, err = corruption(); err != nil {
			return
		}
		a, err := loadgen.DriftBench(ctx, cp, o, cfg, monCfg, *trials)
		return a, experiments.Gates{MaxDriftOverhead: *maxOverhead}, err
	}
}

// adaptLive runs the closed-loop adaptation benchmark — frozen baseline on
// a shifted stream, a live detect→adapt→swap pass, post-swap recovery — and
// records BENCH_adapt-live.json. The shift is injected once the monitor has
// calibrated, not at a stream fraction, so there is no -shift-at.
func adaptLive(fs *flag.FlagSet) benchRun {
	var cfg loadgen.AdaptLiveConfig
	bindShape(fs, &cfg.LoadConfig)
	bindConcurrency(fs, &cfg.Concurrency)
	corruption := bindShift(fs, nil)
	cfg.Serve.BindFlags(fs)
	cfg.Monitor.BindFlags(fs)
	cfg.Controller.BindFlags(fs)
	fs.DurationVar(&cfg.AdaptTimeout, "adapt-timeout", 0, "budget for the loop to close after the injected shift (0 = package default, 120s)")
	return func(ctx context.Context, cp *service.Checkpoint) (_ experiments.Record, _ experiments.Gates, err error) {
		if cfg.Corruption, err = corruption(); err != nil {
			return
		}
		a, err := loadgen.AdaptLiveBench(ctx, cp, cfg)
		return a, experiments.Gates{}, err
	}
}

// gatewayLoad replays the checkpoint run's scenario stream over HTTP
// against a RUNNING gateway, optionally SIGKILLing a replica process
// mid-load, and records BENCH_gateway.json.
func gatewayLoad(fs *flag.FlagSet) benchRun {
	var o loadgen.GatewayOptions
	bindShape(fs, &o.LoadConfig)
	bindPacing(fs, &o.Pacing, 1)
	fs.StringVar(&o.URL, "url", "http://127.0.0.1:8080", "base URL of the running gateway")
	models := fs.String("models", "", "comma-separated model names to spread requests across (empty = default)")
	fs.StringVar(&o.Token, "token", "", "bearer token (required when the predict chain includes auth)")
	fs.IntVar(&o.Retries, "retries", 2, "client-side retries per failed request")
	fs.IntVar(&o.KillPid, "kill-pid", 0, "SIGKILL this replica PID mid-load (0 = no kill)")
	fs.Float64Var(&o.KillAtFraction, "kill-at", 0.5, "run fraction at which the kill fires")
	return func(ctx context.Context, cp *service.Checkpoint) (experiments.Record, experiments.Gates, error) {
		o.URL = strings.TrimRight(o.URL, "/")
		if *models != "" {
			o.Models = strings.Split(*models, ",")
		}
		run, err := loadgen.GatewayLoad(ctx, cp, o)
		if err != nil {
			return nil, experiments.Gates{}, err
		}
		return run.Artifact(cp), experiments.Gates{}, nil
	}
}

// check validates one BENCH_*.json artifact of any kind, prints its headline
// numbers and applies the kind's gate — the smoke tests' machine-checkable
// gate on every benchmark claim. Flags may come before or after the file.
func check(args []string) error {
	fs := flag.NewFlagSet("shiftex-bench check", flag.ContinueOnError)
	var g experiments.Gates
	fs.Float64Var(&g.MinThroughput, "min-throughput", 0, "serving, gateway: fail unless the artifact reports at least this many predictions/sec")
	fs.Float64Var(&g.MinMeanBatch, "min-mean-batch", 0, "serving: fail unless the mean micro-batch size is at least this (proves batching engaged under load)")
	fs.Float64Var(&g.MinAffinity, "min-affinity", 0, "gateway: fail unless every shrink retained at least this fraction of surviving-owner keys")
	fs.Float64Var(&g.MaxTracingOverhead, "max-overhead", 5, "tracing: fail when tracing costs more than this percent of baseline throughput")
	fs.Float64Var(&g.MaxDriftOverhead, "max-drift-overhead", 3, "drift: fail when monitoring costs more than this percent of baseline throughput, the shift went undetected, or any pre-shift false positive crossed")
	against := fs.String("against", "", "serving: compare throughput against this baseline artifact and warn when it regressed by more than 20%")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("usage: shiftex-bench check [flags] BENCH_<name>.json")
	}
	path := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return err
	}
	a, err := experiments.ReadAnyArtifactFile(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Println(a.Summary())
	if err := a.Gate(g); err != nil || *against == "" {
		return err
	}
	// Against a committed baseline a >20% throughput regression is a GitHub
	// annotation, not a failure: absolute throughput is machine-dependent.
	fresh, ok := a.(*experiments.ServingArtifact)
	if !ok {
		return fmt.Errorf("-against compares serving artifacts, this is %q", a.ArtifactName())
	}
	var base experiments.ServingArtifact
	if err := experiments.ReadArtifactFile(*against, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", *against, err)
	}
	if base.Name != fresh.Name {
		return fmt.Errorf("baseline %s is a %q artifact, cannot compare against %q", *against, base.Name, fresh.Name)
	}
	ratio := fresh.ThroughputPerSec / base.ThroughputPerSec
	fmt.Printf("vs baseline %s: %.0f/s -> %.0f/s (%+.1f%%)\n",
		*against, base.ThroughputPerSec, fresh.ThroughputPerSec, (ratio-1)*100)
	if ratio < 0.8 {
		fmt.Printf("::warning file=%s::serving throughput regressed %.1f%% vs committed baseline (%.0f/s -> %.0f/s)\n",
			*against, (1-ratio)*100, base.ThroughputPerSec, fresh.ThroughputPerSec)
	}
	return nil
}
