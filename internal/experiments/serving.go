package experiments

import (
	"errors"
	"fmt"
)

// ServingSchemaVersion is bumped whenever the BENCH_serving.json layout
// changes incompatibly; decoders reject other versions.
const ServingSchemaVersion = 1

// ServingArtifactName keys the serving benchmark's artifact file
// (BENCH_serving.json via ArtifactFileName).
const ServingArtifactName = "serving"

// ServingColdArtifactName keys the cold-traffic variant
// (BENCH_serving-cold.json): the same protocol with the route cache
// disabled, so every request pays the full batched routing + inference
// path. The warm artifact's throughput is dominated by cache hits; the
// cold one is the honest compute-throughput number.
const ServingColdArtifactName = "serving-cold"

// ServingOptions records the load-generation protocol: the checkpoint the
// server ran from, the regenerated scenario shape, and the pipeline knobs.
// Unlike grid ArtifactOptions, most serving results (throughput, latency)
// are inherently machine-dependent, so there is no StripTiming analogue —
// the artifact is a performance record, not a determinism contract.
type ServingOptions struct {
	CheckpointWindows int     `json:"checkpointWindows"` // stream position the snapshot was taken at
	Parties           int     `json:"parties"`
	SamplesPerParty   int     `json:"samplesPerParty"`
	TestPerParty      int     `json:"testPerParty"`
	Seed              uint64  `json:"seed"`
	TargetQPS         float64 `json:"targetQps"` // 0 = open loop (as fast as possible)
	Concurrency       int     `json:"concurrency"`
	Repeat            int     `json:"repeat"`
	Workers           int     `json:"workers"`
	MaxBatch          int     `json:"maxBatch"`
	MaxDelayMs        float64 `json:"maxDelayMs"`
	CacheSize         int     `json:"cacheSize"`
	RouteEpsilonScale float64 `json:"routeEpsilonScale"`
	SwapMidLoad       bool    `json:"swapMidLoad"`
	// ColdTraffic marks a run with the route cache disabled (CacheSize
	// < 0): every request was routed through the encoder. Mirrors the
	// "serving-cold" artifact name; Validate cross-checks the two.
	ColdTraffic bool `json:"coldTraffic,omitempty"`
}

// ServingRegime is one covariate regime's serving quality: how accurately
// its requests were predicted and how often they were routed to the expert
// the training run had assigned to their party — the per-regime routing
// accuracy under injected shift.
type ServingRegime struct {
	Regime           string  `json:"regime"` // e.g. "clean", "fog:3"
	Requests         int     `json:"requests"`
	Accuracy         float64 `json:"accuracy"`
	RoutedToAssigned float64 `json:"routedToAssigned"`
	MatchedFraction  float64 `json:"matchedFraction"` // latent-memory match (vs fallback) rate
}

// ServingArtifact is the versioned, machine-readable record of one serving
// load-generation run: aggregate throughput, latency quantiles, prediction
// accuracy, and per-regime routing quality.
type ServingArtifact struct {
	Schema  int            `json:"schema"`
	Name    string         `json:"name"`
	Options ServingOptions `json:"options"`

	Requests         uint64  `json:"requests"` // completed predictions
	Errors           uint64  `json:"errors"`
	Rejected         uint64  `json:"rejected"` // admission-queue rejections
	DurationMs       float64 `json:"durationMs"`
	ThroughputPerSec float64 `json:"throughputPerSec"`

	LatencyMsP50 float64 `json:"latencyMsP50"`
	LatencyMsP90 float64 `json:"latencyMsP90"`
	LatencyMsP99 float64 `json:"latencyMsP99"`
	LatencyMsMax float64 `json:"latencyMsMax"`

	Accuracy         float64 `json:"accuracy"`
	RoutedToAssigned float64 `json:"routedToAssigned"`
	CacheHitRate     float64 `json:"cacheHitRate"`
	Swaps            uint64  `json:"swaps"`
	MeanBatch        float64 `json:"meanBatch"`

	Regimes []ServingRegime `json:"regimes"`
}

// Validate checks schema version and structural coherence.
func (a *ServingArtifact) Validate() error {
	switch {
	case a.Schema != ServingSchemaVersion:
		return fmt.Errorf("experiments: serving artifact schema %d, want %d", a.Schema, ServingSchemaVersion)
	case a.Name != ServingArtifactName && a.Name != ServingColdArtifactName:
		return fmt.Errorf("experiments: serving artifact name %q, want %q or %q", a.Name, ServingArtifactName, ServingColdArtifactName)
	case a.Options.ColdTraffic != (a.Name == ServingColdArtifactName):
		return fmt.Errorf("experiments: serving artifact name %q disagrees with coldTraffic=%v", a.Name, a.Options.ColdTraffic)
	case a.Requests == 0:
		return errors.New("experiments: serving artifact records no completed requests")
	case a.DurationMs <= 0:
		return errors.New("experiments: serving artifact has no duration")
	case len(a.Regimes) == 0:
		return errors.New("experiments: serving artifact has no per-regime breakdown")
	}
	for i, r := range a.Regimes {
		if r.Regime == "" {
			return fmt.Errorf("experiments: serving regime %d has no name", i)
		}
		if r.Requests <= 0 {
			return fmt.Errorf("experiments: serving regime %q records no requests", r.Regime)
		}
	}
	return nil
}

// ArtifactName implements Record.
func (a *ServingArtifact) ArtifactName() string { return a.Name }

// Summary implements Record: the headline line, then one line per regime.
func (a *ServingArtifact) Summary() string {
	s := fmt.Sprintf("serving artifact ok: name=%s requests=%d errors=%d throughputPerSec=%.0f p50Ms=%.3g p90Ms=%.3g p99Ms=%.3g accuracy=%.3f routing=%.3f meanBatch=%.2f regimes=%d swaps=%d",
		a.Name, a.Requests, a.Errors, a.ThroughputPerSec, a.LatencyMsP50, a.LatencyMsP90, a.LatencyMsP99,
		a.Accuracy, a.RoutedToAssigned, a.MeanBatch, len(a.Regimes), a.Swaps)
	for _, g := range a.Regimes {
		s += fmt.Sprintf("\n  regime %-10s %6d requests  accuracy=%.3f  routed-to-assigned=%.3f  matched=%.3f",
			g.Regime, g.Requests, g.Accuracy, g.RoutedToAssigned, g.MatchedFraction)
	}
	return s
}

// Gate implements Record: zero errored requests, and the throughput and
// mean-batch floors when set.
func (a *ServingArtifact) Gate(g Gates) error {
	switch {
	case a.Errors > 0:
		return fmt.Errorf("artifact records %d errored requests", a.Errors)
	case g.MinThroughput > 0 && a.ThroughputPerSec < g.MinThroughput:
		return fmt.Errorf("throughput %.0f/s below required %.0f/s", a.ThroughputPerSec, g.MinThroughput)
	case g.MinMeanBatch > 0 && a.MeanBatch < g.MinMeanBatch:
		return fmt.Errorf("mean batch size %.2f below required %.2f (micro-batching did not engage)", a.MeanBatch, g.MinMeanBatch)
	}
	return nil
}
