package loadgen

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/continual"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/stats"
)

const tinyCheckpoint = "../serve/testdata/checkpoint_tiny.json"

// tinyOptions matches the scenario shape checkpoint_tiny.json was trained
// with (see EXPERIMENTS.md "Serving benchmark" for the recipe).
func tinyOptions() Options {
	return Options{
		LoadConfig: serve.LoadConfig{SamplesPerParty: 40, TestPerParty: 20},
		Pacing:     Pacing{Concurrency: 4, Repeat: 2},
	}
}

func tinyServer(t *testing.T, cfg serve.Config) (*service.Checkpoint, *serve.Server) {
	t.Helper()
	cp, err := service.LoadCheckpoint(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return cp, srv
}

func TestServeLoadAgainstTinyCheckpoint(t *testing.T) {
	cp, srv := tinyServer(t, serve.Config{Workers: 2, MaxDelay: 500 * time.Microsecond})
	o := tinyOptions()
	res, err := ServeLoad(context.Background(), srv, cp, o)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := uint64(len(cp.Aggregator.Assignment) * o.TestPerParty * o.Repeat)
	if res.Requests+res.Rejected+res.Errors != wantTotal {
		t.Fatalf("accounted %d requests, want %d", res.Requests+res.Rejected+res.Errors, wantTotal)
	}
	if res.Errors != 0 {
		t.Fatalf("%d requests errored", res.Errors)
	}
	if res.Requests == 0 || res.Duration <= 0 {
		t.Fatal("no load was generated")
	}
	// The snapshot was trained on this distribution; it must beat chance
	// (10 classes) comfortably.
	if acc := res.Accuracy(); acc < 0.2 {
		t.Fatalf("serving accuracy %.3f, want >= 0.2", acc)
	}
	if res.AssignedKnown == 0 {
		t.Fatal("no request had routing ground truth")
	}
	if len(res.Regimes) < 2 {
		t.Fatalf("the adapted window mixes regimes, got %+v", res.Regimes)
	}
	// Second pass over the same stream must have hit the route cache.
	if res.Server.CacheHits == 0 {
		t.Fatal("repeat pass produced no cache hits")
	}

	a := res.Artifact(cp)
	if err := a.Validate(); err != nil {
		t.Fatalf("artifact invalid: %v", err)
	}
	if a.ThroughputPerSec <= 0 || a.Requests != res.Requests || len(a.Regimes) != len(res.Regimes) {
		t.Fatal("artifact does not reflect the run")
	}
	if a.Options.Seed != cp.Seed || a.Options.CheckpointWindows != cp.WindowsDone {
		t.Fatal("artifact options do not pin the checkpoint protocol")
	}
	// The options block records what ran, defaults resolved.
	if a.Options.Concurrency != 4 || a.Options.Workers != 2 || a.Options.MaxBatch != 32 || a.Options.CacheSize != 4096 || a.Options.RouteEpsilonScale != 4 {
		t.Fatalf("unresolved options: %+v", a.Options)
	}
	if a.Name != experiments.ServingArtifactName || a.Options.ColdTraffic {
		t.Fatalf("cache-enabled run must produce the warm artifact, got %q cold=%v", a.Name, a.Options.ColdTraffic)
	}
	// One computation per regime, the aggregate's denominators.
	for i, g := range res.Regimes {
		if r := a.Regimes[i]; r.Regime != g.Name || r.RoutedToAssigned != g.RoutingAccuracy() || r.Accuracy != g.Accuracy() {
			t.Fatalf("regime %d: artifact %+v, run %+v", i, r, g)
		}
	}
}

// TestServeLoadColdArtifact pins the cold-traffic artifact contract: a run
// with the cache disabled names itself "serving-cold", carries the
// coldTraffic flag, and still validates.
func TestServeLoadColdArtifact(t *testing.T) {
	cp, srv := tinyServer(t, serve.Config{Workers: 2, MaxDelay: 500 * time.Microsecond, CacheSize: -1})
	res, err := ServeLoad(context.Background(), srv, cp, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifact(cp)
	if a.Name != experiments.ServingColdArtifactName || !a.Options.ColdTraffic {
		t.Fatalf("cold run artifact = %q cold=%v", a.Name, a.Options.ColdTraffic)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("cold artifact invalid: %v", err)
	}
	if a.CacheHitRate != 0 {
		t.Fatalf("cold run reports cacheHitRate %g, want 0", a.CacheHitRate)
	}
	if res.Server.CacheBypass != res.Server.Requests {
		t.Fatalf("bypass=%d requests=%d, every cold request must bypass the cache",
			res.Server.CacheBypass, res.Server.Requests)
	}
}

func TestServeLoadSwapMidLoadDropsNothing(t *testing.T) {
	cp, srv := tinyServer(t, serve.Config{Workers: 2, MaxDelay: 500 * time.Microsecond, QueueDepth: 1 << 16})
	o := tinyOptions()
	o.SwapMidLoad = true
	o.Repeat = 1 << 20 // effectively unbounded; the deadline ends the run
	o.MaxDuration = 400 * time.Millisecond
	res, err := ServeLoad(context.Background(), srv, cp, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d requests errored across the swap", res.Errors)
	}
	if res.Server.Swaps != 1 {
		t.Fatalf("swaps=%d, want exactly 1", res.Server.Swaps)
	}
	if res.Requests == 0 {
		t.Fatal("no load was generated")
	}
}

// TestServeLoadSwapNeverLies pins the SwapMidLoad contract at both ends of a
// run's length. The shortest run there is — eight requests, one per party —
// still swaps exactly once, under load, because the worker that claims the
// fifth request performs the swap before issuing it. A run a deadline ends
// short of the mark fails loudly with ErrSwapTooLate and records no swap:
// never a success that silently skipped it.
func TestServeLoadSwapNeverLies(t *testing.T) {
	cp, srv := tinyServer(t, serve.Config{Workers: 2, MaxDelay: 500 * time.Microsecond})
	o := tinyOptions()
	o.SwapMidLoad = true
	o.Repeat = 1
	o.TestPerParty = 1
	res, err := ServeLoad(context.Background(), srv, cp, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Server.Swaps != 1 || res.Requests != 8 {
		t.Fatalf("%d swaps over %d requests, want 1 over 8", res.Server.Swaps, res.Requests)
	}

	o.Concurrency = 1
	o.Repeat = 1 << 20
	o.MaxDuration = time.Nanosecond // the first completion is already past it
	_, err = ServeLoad(context.Background(), srv, cp, o)
	if !errors.Is(err, ErrSwapTooLate) {
		t.Fatalf("err=%v, want ErrSwapTooLate", err)
	}
	if got := srv.Metrics().Snapshot().Swaps; got != 1 {
		t.Fatalf("ErrSwapTooLate but a second swap was recorded (%d)", got)
	}
}

// tinyMonitorConfig keeps the monitor's reservoirs small enough that the
// tiny checkpoint's workload calibrates and evaluates within a few thousand
// requests. The stream is a cycle of parties×TestPerParty = 160 distinct
// inputs, so the recent window must cover at least one full cycle: a shorter
// window is a contiguous chunk of the cycle, which genuinely differs in
// distribution from the whole and would read as drift on perfectly clean
// traffic. The queue holds the whole 6 400-request run (256 blocks × 32
// rows), so a fold goroutine starved for the run's 20 ms drops nothing and
// the verdict does not depend on scheduling.
func tinyMonitorConfig() monitor.Config {
	return monitor.Config{
		QueueBlocks:  256,
		BlockRows:    32,
		EvalEvery:    160,
		BaselineSize: 320,
		WindowSize:   160,
		Threshold:    2,
		Calibrate:    stats.CalibrateConfig{Resamples: 50, PValue: 0.02},
		Seed:         1,
	}
}

// TestServerMonitorDetectsInjectedShift drives the full plane end to end:
// cold traffic through the batched pipeline tees into the monitor, a
// frost/5 regime change is injected mid-stream, and the drift score must
// cross the threshold after — and only after — the injection watermark.
func TestServerMonitorDetectsInjectedShift(t *testing.T) {
	mon := monitor.New(tinyMonitorConfig())
	defer mon.Close()
	cp, srv := tinyServer(t, serve.Config{
		Workers:   2,
		MaxDelay:  500 * time.Microsecond,
		CacheSize: -1,
		Monitor:   mon,
	})
	o := tinyOptions()
	o.Repeat = 40 // 6 400 requests, ~20 ms
	o.ShiftAt = 0.5
	res, err := ServeLoad(context.Background(), srv, cp, o)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(res.Regimes, func(g Tally) bool { return g.Name == "shifted:frost/5" }) {
		t.Fatalf("no shifted regime in the breakdown: %+v", res.Regimes)
	}
	mon.Flush()
	sum := mon.Summary()
	if !sum.Calibrated {
		t.Fatalf("monitor never calibrated: %s", sum.CalibrationError)
	}
	if sum.Samples == 0 || sum.Evals == 0 {
		t.Fatalf("monitor idle: samples=%d evals=%d", sum.Samples, sum.Evals)
	}
	var detectedAt uint64
	for _, ev := range mon.Evaluations(0, -1) {
		if ev.Err != "" {
			t.Fatalf("evaluation error: %s", ev.Err)
		}
		if !ev.Crossed {
			continue
		}
		// The watermark is in the tee clock; ev.TeedAt is the evaluation's
		// position in the same clock (ev.Samples, the folded count, lags it
		// when backpressure drops samples).
		if ev.TeedAt <= res.ShiftTeedSamples {
			t.Fatalf("false positive: crossing teed at %d, shift watermark %d (score %.3f)",
				ev.TeedAt, res.ShiftTeedSamples, ev.Score)
		}
		if detectedAt == 0 {
			detectedAt = ev.TeedAt
		}
	}
	if detectedAt == 0 {
		t.Fatalf("injected shift never detected: max summary score %.3f, threshold %.3f, %d evals",
			sum.Score, sum.Threshold, sum.Evals)
	}
	t.Logf("detected at sample %d, watermark %d (latency %d samples)",
		detectedAt, res.ShiftTeedSamples, detectedAt-res.ShiftTeedSamples)
}

// TestClosedLoopEndToEnd drives the full loop against the real checkpoint
// under concurrent traffic: clean warmup → injected covariate shift →
// detection → live adaptation window → validation → hot swap → recovery,
// with the CI gate asserting the post-swap routing strictly improves. The
// -race runs of this test are the concurrency proof for the whole
// monitor → controller → trainer → swap path.
func TestClosedLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop bench needs monitor calibration; skipped in -short")
	}
	cp, err := service.LoadCheckpoint(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	a, err := AdaptLiveBench(ctx, cp, AdaptLiveConfig{
		LoadConfig:  serve.LoadConfig{SamplesPerParty: 40, TestPerParty: 20},
		Concurrency: 8,
		Monitor: monitor.Config{
			EvalEvery:    512,
			BaselineSize: 160,
			WindowSize:   160,
			Calibrate:    stats.CalibrateConfig{Resamples: 20},
		},
		Controller: continual.Config{Cooldown: time.Hour}, // recovery pass must not race a second window
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("artifact invalid: %v", err)
	}
	if err := a.CheckAdaptLive(); err != nil {
		t.Fatalf("closed loop gate failed: %v\nartifact: %+v", err, a)
	}
	if a.AdaptLatencyMs <= 0 {
		t.Fatalf("loop closed but latency not recorded: %+v", a)
	}
	if a.ValidationCandidateMatched <= a.ValidationBaselineMatched {
		t.Fatalf("live radius did not lift validation matching: %.3f vs %.3f",
			a.ValidationCandidateMatched, a.ValidationBaselineMatched)
	}
	// The options block records the economy that ran, not the zeros asked for.
	if o := a.Options; o.Threshold <= 0 || o.ValidationMinSamples <= 0 || o.Hysteresis <= 0 || o.CooldownMs != 3.6e6 {
		t.Fatalf("unresolved options: %+v", o)
	}
}
