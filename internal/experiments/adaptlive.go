package experiments

import (
	"errors"
	"fmt"
)

// AdaptLiveSchemaVersion is bumped whenever the BENCH_adapt-live.json
// layout changes incompatibly; decoders reject other versions.
const AdaptLiveSchemaVersion = 1

// AdaptLiveArtifactName keys the closed-loop adaptation benchmark's
// artifact file (BENCH_adapt-live.json via ArtifactFileName).
const AdaptLiveArtifactName = "adapt-live"

// AdaptLiveOptions records the protocol of one closed-loop run: a cold
// (cache-disabled) serving workload whose regime flips mid-stream, with
// the continual controller armed to detect the shift, run a live
// adaptation window, and hot-swap the adapted snapshot.
type AdaptLiveOptions struct {
	CheckpointWindows int    `json:"checkpointWindows"`
	Parties           int    `json:"parties"`
	SamplesPerParty   int    `json:"samplesPerParty"`
	TestPerParty      int    `json:"testPerParty"`
	Seed              uint64 `json:"seed"`
	Concurrency       int    `json:"concurrency"`

	ShiftKind     string `json:"shiftKind"`     // corruption name (dataset.Corruption.String)
	ShiftSeverity int    `json:"shiftSeverity"` // corruption severity 1..5

	EvalEvery    int     `json:"evalEvery"`    // monitor: folded samples between drift evaluations
	BaselineSize int     `json:"baselineSize"` // monitor: frozen pre-shift reservoir size
	WindowSize   int     `json:"windowSize"`   // monitor: recent-embedding window size
	Threshold    float64 `json:"threshold"`    // monitor: crossing threshold on the calibrated score
	Resamples    int     `json:"resamples"`    // monitor: bootstrap resamples calibrating δ

	Hysteresis           int     `json:"hysteresis"`           // consecutive crossed evals arming a trigger
	CooldownMs           float64 `json:"cooldownMs"`           // post-window refractory period
	ValidationMinSamples int     `json:"validationMinSamples"` // promotion gate sample floor
	ValidationDisabled   bool    `json:"validationDisabled"`
}

// AdaptLiveArtifact is the versioned record of one closed-loop continual
// adaptation benchmark — the proof that the serving tier reacts to a live
// regime change end to end: the injected shift is detected, a real
// adaptation window runs against the live sketches, the adapted snapshot
// hot-swaps without dropping a request, and the shifted traffic's routing
// quality recovers over the frozen baseline.
type AdaptLiveArtifact struct {
	Schema  int              `json:"schema"`
	Name    string           `json:"name"`
	Options AdaptLiveOptions `json:"options"`

	// Closed-loop phase traffic record.
	Requests         uint64  `json:"requests"`
	Errors           uint64  `json:"errors"`
	Rejected         uint64  `json:"rejected"`
	DurationMs       float64 `json:"durationMs"`
	ThroughputPerSec float64 `json:"throughputPerSec"`

	// Detection record, in the monitor's teed-sample clock.
	ShiftAtSample           uint64  `json:"shiftAtSample"` // teed watermark at injection
	Detected                bool    `json:"detected"`
	DetectedAtSample        uint64  `json:"detectedAtSample,omitempty"`
	DetectionLatencySamples uint64  `json:"detectionLatencySamples,omitempty"`
	ScoreAtDetection        float64 `json:"scoreAtDetection,omitempty"`

	// Adaptation window record.
	WindowsCompleted  uint64  `json:"windowsCompleted"`
	WindowsRolledBack uint64  `json:"windowsRolledBack"`
	WindowsRejected   uint64  `json:"windowsRejected"`
	WindowDurationMs  float64 `json:"windowDurationMs,omitempty"`
	// AdaptLatencyMs is wall time from shift injection to the post-swap
	// snapshot being live — the end-to-end reaction time of the loop.
	AdaptLatencyMs     float64 `json:"adaptLatencyMs,omitempty"`
	SwappedFromVersion int     `json:"swappedFromVersion"`
	SwappedToVersion   int     `json:"swappedToVersion"`
	ShiftedParties     int     `json:"shiftedParties"`
	NewExperts         int     `json:"newExperts"`
	Merged             int     `json:"merged"`
	ExpertsBefore      int     `json:"expertsBefore"`
	ExpertsAfter       int     `json:"expertsAfter"`

	// Promotion-gate record (zero when validation was disabled or abstained).
	ValidationSamples          int     `json:"validationSamples"`
	ValidationBaselineMatched  float64 `json:"validationBaselineMatched"`
	ValidationCandidateMatched float64 `json:"validationCandidateMatched"`

	// Recovery record: the same shifted stream scored against the frozen
	// snapshot (before the loop ran) and against the adapted snapshot
	// (after the swap). Routed is the fraction of requests routed to the
	// expert assigned to the originating party — against the checkpoint
	// assignment for the frozen pass, against the post-window assignment
	// for the adapted pass.
	EvalRequests            int     `json:"evalRequests"`
	FrozenShiftedRouted     float64 `json:"frozenShiftedRouted"`
	FrozenShiftedAccuracy   float64 `json:"frozenShiftedAccuracy"`
	PostSwapShiftedRouted   float64 `json:"postSwapShiftedRouted"`
	PostSwapShiftedAccuracy float64 `json:"postSwapShiftedAccuracy"`
}

// Validate checks schema version and structural coherence.
func (a *AdaptLiveArtifact) Validate() error {
	switch {
	case a.Schema != AdaptLiveSchemaVersion:
		return fmt.Errorf("experiments: adapt-live artifact schema %d, want %d", a.Schema, AdaptLiveSchemaVersion)
	case a.Name != AdaptLiveArtifactName:
		return fmt.Errorf("experiments: adapt-live artifact name %q, want %q", a.Name, AdaptLiveArtifactName)
	case a.Requests == 0:
		return errors.New("experiments: adapt-live artifact records no closed-loop requests")
	case a.EvalRequests == 0:
		return errors.New("experiments: adapt-live artifact records no evaluation requests")
	case a.Detected && a.DetectedAtSample <= a.ShiftAtSample:
		return fmt.Errorf("experiments: adapt-live artifact claims detection at sample %d, at or before the shift watermark %d",
			a.DetectedAtSample, a.ShiftAtSample)
	case a.Detected && a.DetectionLatencySamples != a.DetectedAtSample-a.ShiftAtSample:
		return fmt.Errorf("experiments: adapt-live artifact latency %d inconsistent with detection %d - watermark %d",
			a.DetectionLatencySamples, a.DetectedAtSample, a.ShiftAtSample)
	case a.WindowsCompleted > 0 && a.SwappedToVersion <= a.SwappedFromVersion:
		return fmt.Errorf("experiments: adapt-live artifact completed a window but the snapshot version never advanced (%d → %d)",
			a.SwappedFromVersion, a.SwappedToVersion)
	}
	return nil
}

// CheckAdaptLive enforces the CI gate: the closed loop must have worked end
// to end — injected shift detected, at least one adaptation window completed
// and hot-swapped with zero dropped requests, and the shifted regime's
// routing quality strictly improved over the frozen baseline.
func (a *AdaptLiveArtifact) CheckAdaptLive() error {
	switch {
	case !a.Detected:
		return errors.New("experiments: adapt-live run never detected the injected shift")
	case a.WindowsCompleted == 0:
		return fmt.Errorf("experiments: adapt-live run completed no adaptation window (rolled back %d, rejected %d)",
			a.WindowsRolledBack, a.WindowsRejected)
	case a.SwappedToVersion <= a.SwappedFromVersion:
		return fmt.Errorf("experiments: adapt-live run never advanced the serving snapshot (version %d → %d)",
			a.SwappedFromVersion, a.SwappedToVersion)
	case a.Errors != 0 || a.Rejected != 0:
		return fmt.Errorf("experiments: adapt-live run dropped requests across the swap (%d errors, %d rejected)",
			a.Errors, a.Rejected)
	case a.PostSwapShiftedRouted <= a.FrozenShiftedRouted:
		return fmt.Errorf("experiments: post-swap shifted routing %.3f does not improve on the frozen baseline %.3f",
			a.PostSwapShiftedRouted, a.FrozenShiftedRouted)
	}
	return nil
}

// ArtifactName implements Record.
func (a *AdaptLiveArtifact) ArtifactName() string { return a.Name }

// Summary implements Record: traffic and detection, the loop, the recovery.
func (a *AdaptLiveArtifact) Summary() string {
	return fmt.Sprintf("adapt-live artifact ok: requests=%d errors=%d rejected=%d shiftAtSample=%d — %s\n"+
		"  loop: windows completed=%d rolledBack=%d rejected=%d, snapshot v%d→v%d, window=%.0fms, shift→swap=%.0fms, experts %d→%d (+%d new, %d merged)\n"+
		"  recovery: shifted routing %.3f → %.3f, shifted accuracy %.3f → %.3f (validation matched %.3f → %.3f over %d held-back samples)",
		a.Requests, a.Errors, a.Rejected, a.ShiftAtSample,
		detection(a.Detected, a.DetectedAtSample, a.DetectionLatencySamples, a.ScoreAtDetection),
		a.WindowsCompleted, a.WindowsRolledBack, a.WindowsRejected,
		a.SwappedFromVersion, a.SwappedToVersion, a.WindowDurationMs, a.AdaptLatencyMs,
		a.ExpertsBefore, a.ExpertsAfter, a.NewExperts, a.Merged,
		a.FrozenShiftedRouted, a.PostSwapShiftedRouted,
		a.FrozenShiftedAccuracy, a.PostSwapShiftedAccuracy,
		a.ValidationBaselineMatched, a.ValidationCandidateMatched, a.ValidationSamples)
}

// Gate implements Record: CheckAdaptLive, which takes no threshold.
func (a *AdaptLiveArtifact) Gate(Gates) error { return a.CheckAdaptLive() }
