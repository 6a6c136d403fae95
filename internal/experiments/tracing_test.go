package experiments

import "testing"

func validTracingArtifact() *TracingArtifact {
	return &TracingArtifact{
		Schema: TracingSchemaVersion,
		Name:   TracingArtifactName,
		Options: TracingOptions{
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
			CacheSize:         4096,
			RingSize:          4096,
			Trials:            5,
		},
		BaselineRequests:         48000,
		BaselineDurationMs:       700,
		BaselineThroughputPerSec: 68000,
		BaselineLatencyMsP99:     6,
		TracedRequests:           48000,
		TracedDurationMs:         710,
		TracedThroughputPerSec:   67000,
		TracedLatencyMsP99:       6.1,
		SpansRecorded:            144000,
		OverheadPercent:          1.47,
	}
}

func TestTracingArtifactValidate(t *testing.T) {
	for name, mutate := range map[string]func(*TracingArtifact){
		"wrong schema":  func(a *TracingArtifact) { a.Schema = 99 },
		"wrong name":    func(a *TracingArtifact) { a.Name = "serving" },
		"no baseline":   func(a *TracingArtifact) { a.BaselineRequests = 0 },
		"no traced":     func(a *TracingArtifact) { a.TracedRequests = 0 },
		"no throughput": func(a *TracingArtifact) { a.TracedThroughputPerSec = 0 },
		"no spans":      func(a *TracingArtifact) { a.SpansRecorded = 0 },
	} {
		a := validTracingArtifact()
		mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	if err := validTracingArtifact().Validate(); err != nil {
		t.Errorf("valid artifact rejected: %v", err)
	}
}

func TestTracingArtifactCheckOverhead(t *testing.T) {
	a := validTracingArtifact()
	if err := a.CheckOverhead(5); err != nil {
		t.Errorf("1.47%% should pass a 5%% gate: %v", err)
	}
	a.OverheadPercent = 7.2
	if err := a.CheckOverhead(5); err == nil {
		t.Error("7.2% should fail a 5% gate")
	}
	// Negative overhead (traced faster than baseline, i.e. noise) is
	// valid and passes.
	a.OverheadPercent = -0.3
	if err := a.CheckOverhead(5); err != nil {
		t.Errorf("negative overhead should pass: %v", err)
	}
}
