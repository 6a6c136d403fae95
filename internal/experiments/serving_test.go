package experiments

import (
	"strings"
	"testing"
)

func validServingArtifact() *ServingArtifact {
	return &ServingArtifact{
		Schema: ServingSchemaVersion,
		Name:   ServingArtifactName,
		Options: ServingOptions{
			CheckpointWindows: 4, Parties: 8, SamplesPerParty: 40,
			TestPerParty: 20, Seed: 42, Concurrency: 4, Repeat: 2,
			Workers: 2, MaxBatch: 32, MaxDelayMs: 2, CacheSize: 4096,
		},
		Requests:         320,
		DurationMs:       12.5,
		ThroughputPerSec: 25600,
		LatencyMsP50:     0.1, LatencyMsP90: 0.2, LatencyMsP99: 0.5, LatencyMsMax: 1.2,
		Accuracy: 0.7, RoutedToAssigned: 0.8, CacheHitRate: 0.5, MeanBatch: 3.2,
		Regimes: []ServingRegime{
			{Regime: "none", Requests: 160, Accuracy: 0.8, RoutedToAssigned: 0.9, MatchedFraction: 0.4},
			{Regime: "fog/3", Requests: 160, Accuracy: 0.6, RoutedToAssigned: 0.7, MatchedFraction: 0.9},
		},
	}
}

func TestServingArtifactValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ServingArtifact)
		want   string
	}{
		{"wrong schema", func(a *ServingArtifact) { a.Schema = 99 }, "schema"},
		{"wrong name", func(a *ServingArtifact) { a.Name = "grid" }, "name"},
		{"cold name without flag", func(a *ServingArtifact) { a.Name = ServingColdArtifactName }, "coldTraffic"},
		{"cold flag without name", func(a *ServingArtifact) { a.Options.ColdTraffic = true }, "coldTraffic"},
		{"no requests", func(a *ServingArtifact) { a.Requests = 0 }, "requests"},
		{"no duration", func(a *ServingArtifact) { a.DurationMs = 0 }, "duration"},
		{"no regimes", func(a *ServingArtifact) { a.Regimes = nil }, "regime"},
		{"unnamed regime", func(a *ServingArtifact) { a.Regimes[0].Regime = "" }, "name"},
		{"empty regime", func(a *ServingArtifact) { a.Regimes[0].Requests = 0 }, "requests"},
	}
	for _, tc := range cases {
		a := validServingArtifact()
		tc.mutate(a)
		err := a.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err=%v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestServingArtifactGate(t *testing.T) {
	a := validServingArtifact()
	for _, tc := range []struct {
		name string
		g    Gates
		want string // "" = passes
	}{
		{"no thresholds", Gates{}, ""},
		{"floors met", Gates{MinThroughput: 10000, MinMeanBatch: 2}, ""},
		{"throughput floor", Gates{MinThroughput: 30000}, "throughput"},
		{"mean-batch floor", Gates{MinMeanBatch: 4}, "mean batch"},
		{"other kinds' thresholds ignored", Gates{MinAffinity: 0.9, MaxTracingOverhead: 5, MaxDriftOverhead: 3}, ""},
	} {
		err := a.Gate(tc.g)
		if (tc.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: err=%v, want mention of %q", tc.name, err, tc.want)
		}
	}
	a.Errors = 3
	if err := a.Gate(Gates{}); err == nil {
		t.Error("errored requests must fail the gate with no threshold set")
	}
	if !strings.Contains(a.Summary(), "regime fog/3") {
		t.Errorf("summary lacks the per-regime lines:\n%s", a.Summary())
	}
}
