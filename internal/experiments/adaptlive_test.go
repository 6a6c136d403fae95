package experiments

import (
	"strings"
	"testing"
)

func goodAdaptLive() *AdaptLiveArtifact {
	return &AdaptLiveArtifact{
		Schema:                  AdaptLiveSchemaVersion,
		Name:                    AdaptLiveArtifactName,
		Requests:                1000,
		ShiftAtSample:           400,
		Detected:                true,
		DetectedAtSample:        900,
		DetectionLatencySamples: 500,
		ScoreAtDetection:        6.5,
		WindowsCompleted:        1,
		SwappedFromVersion:      1,
		SwappedToVersion:        2,
		NewExperts:              1,
		ExpertsBefore:           4,
		ExpertsAfter:            5,
		EvalRequests:            320,
		FrozenShiftedRouted:     0.48,
		FrozenShiftedAccuracy:   0.02,
		PostSwapShiftedRouted:   0.59,
		PostSwapShiftedAccuracy: 0.17,
	}
}

func TestAdaptLiveArtifactValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*AdaptLiveArtifact)
	}{
		{"wrong schema", func(a *AdaptLiveArtifact) { a.Schema = 99 }},
		{"wrong name", func(a *AdaptLiveArtifact) { a.Name = "drift" }},
		{"no requests", func(a *AdaptLiveArtifact) { a.Requests = 0 }},
		{"no eval requests", func(a *AdaptLiveArtifact) { a.EvalRequests = 0 }},
		{"detection before shift", func(a *AdaptLiveArtifact) { a.DetectedAtSample = 100 }},
		{"latency mismatch", func(a *AdaptLiveArtifact) { a.DetectionLatencySamples = 7 }},
		{"window without version advance", func(a *AdaptLiveArtifact) { a.SwappedToVersion = 1 }},
	}
	for _, tc := range cases {
		a := goodAdaptLive()
		tc.mut(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	if err := goodAdaptLive().Validate(); err != nil {
		t.Fatalf("good artifact rejected: %v", err)
	}
}

func TestCheckAdaptLiveGate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*AdaptLiveArtifact)
		want string
	}{
		{"not detected", func(a *AdaptLiveArtifact) { a.Detected = false }, "never detected"},
		{"no window", func(a *AdaptLiveArtifact) { a.WindowsCompleted = 0 }, "no adaptation window"},
		{"dropped requests", func(a *AdaptLiveArtifact) { a.Rejected = 3 }, "dropped requests"},
		{"errored requests", func(a *AdaptLiveArtifact) { a.Errors = 1 }, "dropped requests"},
		{"no recovery", func(a *AdaptLiveArtifact) { a.PostSwapShiftedRouted = a.FrozenShiftedRouted }, "does not improve"},
	}
	for _, tc := range cases {
		a := goodAdaptLive()
		tc.mut(a)
		err := a.CheckAdaptLive()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: gate error %v, want %q", tc.name, err, tc.want)
		}
	}
	if err := goodAdaptLive().CheckAdaptLive(); err != nil {
		t.Fatalf("good artifact gated: %v", err)
	}
}
