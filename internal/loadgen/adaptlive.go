package loadgen

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/continual"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
)

// AdaptLiveConfig tunes the closed-loop adaptation benchmark.
type AdaptLiveConfig struct {
	serve.LoadConfig
	// Concurrency is the number of open-loop client goroutines driving the
	// closed-loop phase (default: 2 per core).
	Concurrency int
	// Corruption is the covariate shift injected mid-stream (identity
	// selects frost/5).
	Corruption dataset.Corruption
	Monitor    monitor.Config
	// Controller tunes the adaptation controller. The cooldown should
	// exceed the post-swap evaluation pass (sub-second) so a second window
	// cannot reshuffle assignments while recovery is being scored.
	Controller continual.Config
	// Serve tunes the serving pipeline. The route cache is force-disabled
	// (every request must tee into the monitor) and the benchmark owns the
	// Monitor field.
	Serve serve.Config
	// AdaptTimeout bounds the shifted-traffic phase waiting for the loop to
	// close — detection, window, validation, swap (default 120s).
	AdaptTimeout time.Duration
}

// calibrationTimeout bounds the clean-traffic warm-up waiting for the
// monitor's δ calibration.
const calibrationTimeout = 60 * time.Second

// AdaptLiveBench runs the closed-loop continual adaptation benchmark in
// three passes:
//
//  1. Frozen baseline: the shifted stream is scored against a plain server on
//     the checkpoint snapshot — how the system serves the new regime when
//     nothing adapts.
//  2. Closed loop: a monitored server with the controller armed takes clean
//     traffic until the monitor calibrates, then the stream flips to the
//     shifted regime and open-loop clients keep driving until the loop closes
//     — drift detected, adaptation window run against the live sketches,
//     candidate validated, snapshot hot-swapped — or the timeout expires.
//  3. Recovery: the same shifted stream is scored against the now-adapted
//     server, routed-to-assigned measured against the post-window assignment.
//
// The returned artifact records all three; its CheckAdaptLive is the CI gate.
func AdaptLiveBench(ctx context.Context, cp *service.Checkpoint, cfg AdaptLiveConfig) (*experiments.AdaptLiveArtifact, error) {
	cfg.LoadConfig = cfg.LoadConfig.WithDefaults()
	cfg.Corruption = defaultShift(cfg.Corruption)
	if cfg.AdaptTimeout <= 0 {
		cfg.AdaptTimeout = 120 * time.Second
	}
	items, err := serve.Workload(cp, cfg.LoadConfig)
	if err != nil {
		return nil, err
	}
	shifted := Shifted(items, cfg.Corruption, cp.Seed)

	srvCfg := cfg.Serve
	srvCfg.CacheSize = -1 // full tee coverage: every request routes cold
	srvCfg.Monitor = nil

	// score replays the shifted stream once, in order, and must lose nothing.
	score := func(pass string, srv *serve.Server, items []serve.WorkItem) (*Result, error) {
		res, err := Run(ctx, ServerTarget{srv}, Plan{Stream: &Stream{Items: items}, Pacing: Pacing{Concurrency: 1}})
		if err == nil && res.Errors+res.Rejected > 0 {
			err = fmt.Errorf("%d requests failed", res.Errors+res.Rejected)
		}
		if err != nil {
			return nil, fmt.Errorf("adapt-live bench: %s evaluation pass: %w", pass, err)
		}
		return res, nil
	}

	// Pass 1: frozen baseline on the shifted stream.
	srvA, err := NewServer(cp, srvCfg)
	if err != nil {
		return nil, err
	}
	frozen, err := score("frozen", srvA, shifted)
	if cerr := srvA.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Pass 2: the closed loop.
	mon := monitor.New(cfg.Monitor)
	defer mon.Close()
	srvCfg.Monitor = mon
	srv, err := NewServer(cp, srvCfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	expertsBefore := srv.Snapshot().NumExperts()
	trainer, err := continual.NewLocalTrainer(cp, continual.TrainerConfig{
		SamplesPerParty: cfg.SamplesPerParty,
		TestPerParty:    cfg.TestPerParty,
	})
	if err != nil {
		return nil, err
	}
	ctrl, err := continual.New(mon, srv, trainer, cfg.Controller)
	if err != nil {
		return nil, err
	}
	srv.AttachAdaptation(ctrl)
	ctrl.Start()
	defer ctrl.Close()

	stream := &Stream{Items: items, Shifted: shifted}
	plan := Plan{Stream: stream, Pacing: Pacing{Repeat: Unbounded, Concurrency: cfg.Concurrency}}.withDefaults()
	driveCtx, stopDrive := context.WithCancel(ctx)
	defer stopDrive()
	type driven struct {
		res *Result
		err error
	}
	done := make(chan driven, 1)
	go func() {
		res, err := Run(driveCtx, ServerTarget{srv}, plan)
		done <- driven{res, err}
	}()
	stop := func() driven {
		stopDrive()
		return <-done
	}

	// Clean warm-up until the monitor has calibrated δ.
	calDeadline := time.Now().Add(calibrationTimeout)
	for !mon.Summary().Calibrated {
		if ctx.Err() != nil || time.Now().After(calDeadline) {
			stop()
			return nil, errors.New("adapt-live bench: monitor never calibrated under clean traffic (shrink the baseline)")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Inject the shift and wait for the loop to close.
	fromVersion := srv.Snapshot().Version
	shiftTeed := mon.Teed()
	shiftWall := time.Now()
	stream.Shift()

	adaptDeadline := shiftWall.Add(cfg.AdaptTimeout)
	var adaptLatency time.Duration
	for ctx.Err() == nil && time.Now().Before(adaptDeadline) {
		if ctrl.ContinualState().WindowsCompleted >= 1 {
			adaptLatency = time.Since(shiftWall)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	drive := stop()
	if drive.err != nil {
		return nil, drive.err
	}

	// Pass 3: recovery on the adapted snapshot. Runs inside the controller's
	// cooldown, so the assignment being scored cannot shift underneath it.
	adapted := srv.Snapshot()
	reassigned := make([]serve.WorkItem, len(shifted))
	for i, it := range shifted {
		it.Assigned = -1
		if id, ok := adapted.AssignedExpert(it.Party); ok {
			it.Assigned = id
		}
		reassigned[i] = it
	}
	post, err := score("post-swap", srv, reassigned)
	if err != nil {
		return nil, err
	}

	st := ctrl.ContinualState()
	monCfg, ctrlCfg := mon.Config(), ctrl.Config()
	a := &experiments.AdaptLiveArtifact{
		Schema: experiments.AdaptLiveSchemaVersion,
		Name:   experiments.AdaptLiveArtifactName,
		Options: experiments.AdaptLiveOptions{
			CheckpointWindows:    cp.WindowsDone,
			Parties:              len(cp.Aggregator.Assignment),
			SamplesPerParty:      cfg.SamplesPerParty,
			TestPerParty:         cfg.TestPerParty,
			Seed:                 cp.Seed,
			Concurrency:          plan.Concurrency,
			ShiftKind:            cfg.Corruption.Kind.String(),
			ShiftSeverity:        cfg.Corruption.Severity,
			EvalEvery:            monCfg.EvalEvery,
			BaselineSize:         monCfg.BaselineSize,
			WindowSize:           monCfg.WindowSize,
			Threshold:            monCfg.Threshold,
			Resamples:            monCfg.Calibrate.Resamples,
			Hysteresis:           ctrlCfg.Hysteresis,
			CooldownMs:           ms(ctrlCfg.Cooldown),
			ValidationMinSamples: ctrlCfg.Validation.MinSamples,
			ValidationDisabled:   ctrlCfg.Validation.Disabled,
		},
		Requests:           drive.res.Requests,
		Errors:             drive.res.Errors,
		Rejected:           drive.res.Rejected,
		DurationMs:         ms(drive.res.Duration),
		ThroughputPerSec:   drive.res.Throughput(),
		ShiftAtSample:      shiftTeed,
		ExpertsBefore:      expertsBefore,
		ExpertsAfter:       adapted.NumExperts(),
		WindowsCompleted:   st.WindowsCompleted,
		WindowsRolledBack:  st.WindowsRolledBack,
		WindowsRejected:    st.WindowsRejected,
		SwappedFromVersion: fromVersion,
		SwappedToVersion:   adapted.Version,
		AdaptLatencyMs:     ms(adaptLatency),

		EvalRequests:            int(frozen.Requests + post.Requests),
		FrozenShiftedRouted:     frozen.RoutingAccuracy(),
		FrozenShiftedAccuracy:   frozen.Accuracy(),
		PostSwapShiftedRouted:   post.RoutingAccuracy(),
		PostSwapShiftedAccuracy: post.Accuracy(),
	}
	if tr := st.LastTrigger; tr != nil && tr.TeedAt > shiftTeed {
		a.Detected = true
		a.DetectedAtSample = tr.TeedAt
		a.DetectionLatencySamples = tr.TeedAt - shiftTeed
		a.ScoreAtDetection = tr.Score
	}
	if w := st.LastWindow; w != nil {
		a.WindowDurationMs = w.DurationMs
		a.ShiftedParties = w.ShiftedParties
		a.NewExperts = w.NewExperts
		a.Merged = w.Merged
		if v := w.Validation; v != nil {
			a.ValidationSamples = v.Samples
			a.ValidationBaselineMatched = v.BaselineMatched
			a.ValidationCandidateMatched = v.CandidateMatched
		}
	}
	return a, nil
}
