package loadgen

import (
	"context"
	"errors"
	"fmt"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/service"
)

// GatewayOptions is the protocol of the gateway benchmark: an HTTP client
// fleet driving a running gateway process and, through it, the serve
// replica processes.
type GatewayOptions struct {
	serve.LoadConfig
	// URL is the gateway base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Models are the model names to spread requests across round-robin;
	// empty means the default model. Every one must be served from a
	// checkpoint with the same seed and shape, since the ground truth is
	// regenerated once.
	Models []string
	// Token is sent as a bearer token when non-empty (required when the
	// predict chain includes "auth").
	Token string
	Pacing
	// Retries is the client-side retry budget per request.
	Retries int
	// KillPid, when positive, is SIGKILLed once KillAtFraction of the run
	// has passed — the mid-load replica-crash experiment.
	KillPid        int
	KillAtFraction float64
}

// GatewayRun is one gateway load run: the client-side view plus the
// gateway's own /v1/state at run end (failovers, evictions, session cache,
// per-model shrink stats).
type GatewayRun struct {
	*Result
	Options    GatewayOptions // defaults resolved
	Retried    uint64         // client retry attempts issued
	Rejections uint64         // middleware rejections observed (401/429/503)
	Gateway    httpapi.GatewayState
}

// GatewayLoad replays the checkpoint's scenario stream against the gateway
// at o.URL.
func GatewayLoad(ctx context.Context, cp *service.Checkpoint, o GatewayOptions) (*GatewayRun, error) {
	if o.URL == "" {
		return nil, errors.New("gateway load: no gateway URL")
	}
	items, err := serve.Workload(cp, o.LoadConfig)
	if err != nil {
		return nil, err
	}
	plan := Plan{Stream: &Stream{Items: items}, Models: o.Models, Pacing: o.Pacing}.withDefaults()
	if o.KillPid > 0 {
		// A real SIGKILL to a replica process while clients are in their
		// request loops.
		plan.Triggers = []Trigger{{At: o.KillAtFraction, TooLate: ErrKillTooLate,
			Fire: func(int64) error { return syscall.Kill(o.KillPid, syscall.SIGKILL) }}}
	}
	o.LoadConfig, o.Models, o.Pacing = o.LoadConfig.WithDefaults(), plan.Models, plan.Pacing

	tgt := NewHTTPTarget(o.URL, o.Token, o.Retries, plan.Concurrency)
	defer tgt.Close()
	res, err := Run(ctx, tgt, plan)
	if err != nil {
		return nil, err
	}
	// The gateway's own accounting — failovers, evictions, session cache,
	// and the per-model shrink stats the affinity gate asserts on.
	st, err := tgt.State(ctx)
	if err != nil {
		return nil, fmt.Errorf("gateway load: after the run: %w", err)
	}
	if st.Gateway == nil {
		return nil, errors.New("gateway load: /v1/state has no gateway section")
	}
	return &GatewayRun{Result: res, Options: o, Retried: tgt.Retried(), Rejections: tgt.Rejected(), Gateway: *st.Gateway}, nil
}

// Artifact converts the run into the versioned BENCH_gateway.json form.
func (r *GatewayRun) Artifact(cp *service.Checkpoint) *experiments.GatewayArtifact {
	o := r.Options
	a := &experiments.GatewayArtifact{
		Schema: experiments.GatewaySchemaVersion,
		Name:   experiments.GatewayArtifactName,
		Options: experiments.GatewayOptions{
			CheckpointWindows: cp.WindowsDone,
			Parties:           len(cp.Aggregator.Assignment),
			SamplesPerParty:   o.SamplesPerParty,
			TestPerParty:      o.TestPerParty,
			Seed:              cp.Seed,
			Models:            o.Models,
			TargetQPS:         o.TargetQPS,
			Concurrency:       o.Concurrency,
			Repeat:            o.Repeat,
			ClientRetries:     o.Retries,
			PredictChain:      r.Gateway.Middlewares[gateway.RoutePredict],
			KillReplica:       o.KillPid > 0,
		},
		Requests:         r.Requests,
		Errors:           r.Errors,
		Rejected:         r.Rejections,
		Retried:          r.Retried,
		DurationMs:       ms(r.Duration),
		ThroughputPerSec: r.Throughput(),
		LatencyMsP50:     ms(r.Latency.P50),
		LatencyMsP90:     ms(r.Latency.P90),
		LatencyMsP99:     ms(r.Latency.P99),
		LatencyMsMax:     ms(r.Latency.Max),
		Accuracy:         r.Accuracy(),
		SessionHitRate:   ratio(r.Gateway.SessionHits, r.Gateway.SessionHits+r.Gateway.SessionMisses),
		Failovers:        r.Gateway.Failovers,
		Evictions:        r.Gateway.Evictions,
		Readmissions:     r.Gateway.Readmissions,
	}
	if a.Options.KillReplica {
		a.Options.KillAtFraction = o.KillAtFraction
	}
	state := make(map[string]httpapi.GatewayModelState, len(r.Gateway.Models))
	for _, m := range r.Gateway.Models {
		a.Options.Replicas += len(m.Replicas)
		state[m.Name] = m
	}
	for _, t := range r.Models {
		mr := experiments.GatewayModelResult{Model: t.Name, Requests: t.Requests, Accuracy: t.Accuracy()}
		if st, ok := state[t.Name]; ok {
			mr.HealthyReplicas = st.HealthyReplicas
			mr.Replicas = len(st.Replicas)
			if st.LastShrink != nil {
				mr.AffinityRetained = st.LastShrink.RetainedOfSurvivors
				mr.MovedFraction = st.LastShrink.MovedFraction
				mr.KeysTracked = st.LastShrink.KeysTracked
			}
		}
		a.Models = append(a.Models, mr)
	}
	return a
}
