package experiments

import (
	"errors"
	"fmt"
)

// GatewaySchemaVersion is bumped whenever the BENCH_gateway.json layout
// changes incompatibly; decoders reject other versions.
const GatewaySchemaVersion = 1

// GatewayArtifactName keys the gateway benchmark's artifact file
// (BENCH_gateway.json via ArtifactFileName).
const GatewayArtifactName = "gateway"

// GatewayOptions records the gateway load protocol: the replica topology,
// the middleware chain the requests traversed, and the mid-load kill.
type GatewayOptions struct {
	CheckpointWindows int      `json:"checkpointWindows"`
	Parties           int      `json:"parties"`
	SamplesPerParty   int      `json:"samplesPerParty"`
	TestPerParty      int      `json:"testPerParty"`
	Seed              uint64   `json:"seed"`
	Models            []string `json:"models"`   // model names driven
	Replicas          int      `json:"replicas"` // replicas at start of run, all models
	TargetQPS         float64  `json:"targetQps"`
	Concurrency       int      `json:"concurrency"`
	Repeat            int      `json:"repeat"`
	ClientRetries     int      `json:"clientRetries"`
	PredictChain      []string `json:"predictChain"` // middleware names on the predict route
	KillReplica       bool     `json:"killReplica"`  // a replica was SIGKILLed mid-load
	KillAtFraction    float64  `json:"killAtFraction,omitempty"`
}

// GatewayModelResult is one model's standing after the run, as reported
// by the gateway's /v1/state.
type GatewayModelResult struct {
	Model           string  `json:"model"`
	Requests        uint64  `json:"requests"` // client-side requests addressed to it
	Accuracy        float64 `json:"accuracy"`
	HealthyReplicas int     `json:"healthyReplicas"`
	Replicas        int     `json:"replicas"`
	// Consistent-hash retention across the run's fleet shrink, from the
	// gateway's own key tracker: of the keys whose ring owner SURVIVED the
	// shrink, the fraction still routed to that owner. Zero when the model
	// saw no shrink.
	AffinityRetained float64 `json:"affinityRetained,omitempty"`
	MovedFraction    float64 `json:"movedFraction,omitempty"`
	KeysTracked      int     `json:"keysTracked,omitempty"`
}

// GatewayArtifact is the versioned, machine-readable record of one
// multi-process gateway load run: throughput and latency through the full
// middleware chain, failover behaviour across a mid-load replica kill,
// and the consistent-hash affinity that survived the shrink.
type GatewayArtifact struct {
	Schema  int            `json:"schema"`
	Name    string         `json:"name"`
	Options GatewayOptions `json:"options"`

	Requests         uint64  `json:"requests"` // completed predictions
	Errors           uint64  `json:"errors"`   // requests failed after client retries
	Rejected         uint64  `json:"rejected"` // middleware rejections observed (429/503)
	Retried          uint64  `json:"retried"`  // client-side retry attempts
	DurationMs       float64 `json:"durationMs"`
	ThroughputPerSec float64 `json:"throughputPerSec"`

	LatencyMsP50 float64 `json:"latencyMsP50"`
	LatencyMsP90 float64 `json:"latencyMsP90"`
	LatencyMsP99 float64 `json:"latencyMsP99"`
	LatencyMsMax float64 `json:"latencyMsMax"`

	Accuracy       float64 `json:"accuracy"`
	SessionHitRate float64 `json:"sessionHitRate"` // gateway session-cache hit rate
	Failovers      uint64  `json:"failovers"`      // answered by a ring successor
	Evictions      uint64  `json:"evictions"`
	Readmissions   uint64  `json:"readmissions"`

	Models []GatewayModelResult `json:"models"`
}

// Validate checks schema version and structural coherence. A kill run
// must carry the evidence it claims: at least one model with tracked
// affinity, and at least one eviction or failover (a kill nobody noticed
// proves nothing).
func (a *GatewayArtifact) Validate() error {
	switch {
	case a.Schema != GatewaySchemaVersion:
		return fmt.Errorf("experiments: gateway artifact schema %d, want %d", a.Schema, GatewaySchemaVersion)
	case a.Name != GatewayArtifactName:
		return fmt.Errorf("experiments: gateway artifact name %q, want %q", a.Name, GatewayArtifactName)
	case a.Requests == 0:
		return errors.New("experiments: gateway artifact records no completed requests")
	case a.DurationMs <= 0:
		return errors.New("experiments: gateway artifact has no duration")
	case len(a.Models) == 0:
		return errors.New("experiments: gateway artifact has no per-model breakdown")
	}
	for i, m := range a.Models {
		if m.Model == "" {
			return fmt.Errorf("experiments: gateway model %d has no name", i)
		}
	}
	if a.Options.KillReplica {
		if a.Evictions == 0 && a.Failovers == 0 {
			return errors.New("experiments: kill run recorded neither evictions nor failovers")
		}
		tracked := false
		for _, m := range a.Models {
			if m.KeysTracked > 0 {
				tracked = true
			}
		}
		if !tracked {
			return errors.New("experiments: kill run has no affinity tracking to assert on")
		}
	}
	return nil
}

// MinAffinityRetained returns the smallest per-model affinity retention
// among models that recorded a shrink, or 1 when none did — the number
// the ≥0.9 consistent-hashing acceptance gate checks.
func (a *GatewayArtifact) MinAffinityRetained() float64 {
	min := 1.0
	for _, m := range a.Models {
		if m.KeysTracked > 0 && m.AffinityRetained < min {
			min = m.AffinityRetained
		}
	}
	return min
}

// ArtifactName implements Record.
func (a *GatewayArtifact) ArtifactName() string { return a.Name }

// Summary implements Record: the headline line, then one line per model.
func (a *GatewayArtifact) Summary() string {
	s := fmt.Sprintf("gateway artifact ok: requests=%d errors=%d retried=%d rejected=%d throughputPerSec=%.0f p50Ms=%.3g p99Ms=%.3g accuracy=%.3f failovers=%d evictions=%d readmissions=%d minAffinity=%.3f models=%d",
		a.Requests, a.Errors, a.Retried, a.Rejected, a.ThroughputPerSec, a.LatencyMsP50, a.LatencyMsP99,
		a.Accuracy, a.Failovers, a.Evictions, a.Readmissions, a.MinAffinityRetained(), len(a.Models))
	for _, m := range a.Models {
		s += fmt.Sprintf("\n  model %-10s %6d requests  replicas=%d healthy=%d", m.Model, m.Requests, m.Replicas, m.HealthyReplicas)
		if m.KeysTracked > 0 {
			s += fmt.Sprintf("  shrink: %d keys tracked, moved %.3f, retained-of-survivors %.3f",
				m.KeysTracked, m.MovedFraction, m.AffinityRetained)
		}
	}
	return s
}

// Gate implements Record: zero requests failed after retries, and the
// affinity and throughput floors when set.
func (a *GatewayArtifact) Gate(g Gates) error {
	switch {
	case a.Errors > 0:
		return fmt.Errorf("artifact records %d requests failed after retries", a.Errors)
	case g.MinAffinity > 0 && !a.Options.KillReplica:
		return errors.New("a minimum affinity is set but the artifact records no replica kill")
	case g.MinAffinity > 0 && a.MinAffinityRetained() < g.MinAffinity:
		return fmt.Errorf("affinity retention %.3f below required %.3f", a.MinAffinityRetained(), g.MinAffinity)
	case g.MinThroughput > 0 && a.ThroughputPerSec < g.MinThroughput:
		return fmt.Errorf("throughput %.0f/s below required %.0f/s", a.ThroughputPerSec, g.MinThroughput)
	}
	return nil
}
