package experiments

import "testing"

func validDriftArtifact() *DriftArtifact {
	return &DriftArtifact{
		Schema: DriftSchemaVersion,
		Name:   DriftArtifactName,
		Options: DriftOptions{
			CheckpointWindows: 4,
			Arch:              []int{32, 128, 64, 10},
			Parties:           8,
			SamplesPerParty:   40,
			TestPerParty:      20,
			Seed:              42,
			Concurrency:       8,
			Repeat:            300,
			Workers:           2,
			MaxBatch:          16,
			MaxDelayMs:        0.2,
			ShiftAt:           0.5,
			ShiftKind:         "frost",
			ShiftSeverity:     5,
			EvalEvery:         2048,
			BaselineSize:      256,
			WindowSize:        128,
			Threshold:         2,
			Trials:            3,
		},
		BaselineRequests:          48000,
		BaselineDurationMs:        700,
		BaselineThroughputPerSec:  68000,
		MonitoredRequests:         48000,
		MonitoredDurationMs:       710,
		MonitoredThroughputPerSec: 67000,
		OverheadPercent:           1.47,
		SamplesSeen:               47000,
		SamplesDropped:            120,
		Evals:                     22,
		ShiftAtSample:             23500,
		DetectedAtSample:          26000,
		DetectionLatencySamples:   2500,
		Detected:                  true,
		FalsePositives:            0,
		Delta:                     0.013,
		ScoreAtDetection:          3.4,
		MaxScore:                  5.1,
	}
}

func TestDriftArtifactValidate(t *testing.T) {
	for name, mutate := range map[string]func(*DriftArtifact){
		"wrong schema":         func(a *DriftArtifact) { a.Schema = 99 },
		"wrong name":           func(a *DriftArtifact) { a.Name = "tracing" },
		"shiftAt out of range": func(a *DriftArtifact) { a.Options.ShiftAt = 1 },
		"no baseline":          func(a *DriftArtifact) { a.BaselineRequests = 0 },
		"no monitored":         func(a *DriftArtifact) { a.MonitoredRequests = 0 },
		"no throughput":        func(a *DriftArtifact) { a.MonitoredThroughputPerSec = 0 },
		"no samples":           func(a *DriftArtifact) { a.SamplesSeen = 0 },
		"no evals":             func(a *DriftArtifact) { a.Evals = 0 },
		"degenerate delta":     func(a *DriftArtifact) { a.Delta = 0 },
		"detection before shift": func(a *DriftArtifact) {
			a.DetectedAtSample = a.ShiftAtSample
		},
		"inconsistent latency": func(a *DriftArtifact) { a.DetectionLatencySamples++ },
	} {
		a := validDriftArtifact()
		mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	if err := validDriftArtifact().Validate(); err != nil {
		t.Errorf("valid artifact rejected: %v", err)
	}
	// An undetected run is structurally valid (the gate, not Validate,
	// rejects it) — detection-consistency checks only bind when Detected.
	a := validDriftArtifact()
	a.Detected = false
	a.DetectedAtSample, a.DetectionLatencySamples, a.ScoreAtDetection = 0, 0, 0
	if err := a.Validate(); err != nil {
		t.Errorf("undetected artifact rejected: %v", err)
	}
}

func TestDriftArtifactCheckDrift(t *testing.T) {
	a := validDriftArtifact()
	if err := a.CheckDrift(3); err != nil {
		t.Errorf("valid artifact should pass a 3%% gate: %v", err)
	}
	a.OverheadPercent = 7.2
	if err := a.CheckDrift(3); err == nil {
		t.Error("7.2% overhead should fail a 3% gate")
	}
	a = validDriftArtifact()
	a.Detected = false
	if err := a.CheckDrift(3); err == nil {
		t.Error("undetected shift should fail the gate")
	}
	a = validDriftArtifact()
	a.FalsePositives = 2
	if err := a.CheckDrift(3); err == nil {
		t.Error("pre-shift crossings should fail the gate")
	}
	// Negative overhead (monitored faster than baseline, i.e. noise)
	// passes.
	a = validDriftArtifact()
	a.OverheadPercent = -0.3
	if err := a.CheckDrift(3); err != nil {
		t.Errorf("negative overhead should pass: %v", err)
	}
}
