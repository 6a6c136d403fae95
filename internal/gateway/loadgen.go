package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// LoadConfig tunes the gateway load generator — an HTTP client fleet
// driving a RUNNING gateway process (and, through it, the serve replica
// processes), so the run exercises the full middleware chain and real
// network failover, not in-process shortcuts.
type LoadConfig struct {
	// URL is the gateway base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Models are the model names to spread requests across round-robin;
	// empty means the default model.
	Models []string
	// Token is sent as a bearer token when non-empty (required when the
	// predict chain includes "auth").
	Token string
	// TargetQPS paces requests; 0 runs open loop.
	TargetQPS float64
	// Concurrency is the number of client goroutines (default 2/core).
	Concurrency int
	// Repeat is how many passes over the request stream (default 1).
	Repeat int
	// MaxDuration stops the run early when positive.
	MaxDuration time.Duration
	// Retries is the client-side retry budget per request (default 2).
	// The gateway already fails over internally; client retries cover the
	// race where the gateway itself is mid-eviction.
	Retries int
	// KillPid, when positive, is SIGKILLed once KillAtFraction of the
	// stream has been claimed — the mid-load replica-crash experiment.
	KillPid int
	// KillAtFraction is where in the stream the kill fires (default 0.5).
	KillAtFraction float64
	// SamplesPerParty / TestPerParty reproduce the checkpointed
	// scenario's shape, as in serve.LoadConfig.
	SamplesPerParty int
	TestPerParty    int
	// Tracer, when set, roots a loadgen.predict span per request and
	// sends its traceparent with the HTTP request, so a gateway trace
	// can be followed from the client side.
	Tracer *telemetry.Tracer
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Repeat <= 0 {
		c.Repeat = 1
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.KillAtFraction <= 0 || c.KillAtFraction >= 1 {
		c.KillAtFraction = 0.5
	}
	if len(c.Models) == 0 {
		c.Models = []string{httpapi.DefaultModel}
	}
	return c
}

// ErrKillTooLate reports that the stream drained before the mid-load kill
// fired; the run is not valid replica-crash evidence.
var ErrKillTooLate = errors.New("gateway: load finished before the mid-load kill could fire")

// ModelTally is one model's client-side request accounting.
type ModelTally struct {
	Model    string
	Requests uint64
	Correct  uint64
}

// LoadResult aggregates one gateway load run: the client-side view plus
// the gateway's own /v1/state at run end (failovers, evictions, session
// cache, per-model shrink stats).
type LoadResult struct {
	Requests uint64
	Errors   uint64
	Rejected uint64 // middleware rejections observed (401/429/503)
	Retried  uint64 // client retry attempts issued
	Duration time.Duration
	LatencyP50, LatencyP90,
	LatencyP99, LatencyMax time.Duration
	Correct       uint64
	GatewayCached uint64 // answers served from the gateway session cache
	ByReplica     map[string]uint64
	Models        []ModelTally
	Killed        bool
	Gateway       httpapi.GatewayState // gateway /v1/state at run end
}

// Throughput returns completed predictions per second.
func (r *LoadResult) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Duration.Seconds()
}

// Accuracy returns the fraction of completed predictions that were
// correct.
func (r *LoadResult) Accuracy() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Requests)
}

// RunLoad replays the checkpoint's scenario stream against the gateway at
// cfg.URL. Every model in cfg.Models must be served from a checkpoint
// with the same seed/shape (the benchmark script starts all replicas from
// one checkpoint), since the ground truth is regenerated once.
func RunLoad(ctx context.Context, cp *service.Checkpoint, cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.URL == "" {
		return nil, errors.New("gateway: loadgen needs the gateway URL")
	}
	items, err := serve.Workload(cp, serve.LoadConfig{
		SamplesPerParty: cfg.SamplesPerParty, TestPerParty: cfg.TestPerParty,
	})
	if err != nil {
		return nil, err
	}
	total := int64(len(items)) * int64(cfg.Repeat)

	var (
		next     atomic.Int64
		requests atomic.Uint64
		errorsN  atomic.Uint64
		rejected atomic.Uint64
		retried  atomic.Uint64
		correct  atomic.Uint64
		cached   atomic.Uint64
		wg       sync.WaitGroup
		mu       sync.Mutex
		replicas = map[string]uint64{}
		byModel  = map[string]*ModelTally{}
	)
	for _, m := range cfg.Models {
		byModel[m] = &ModelTally{Model: m}
	}
	latencies := make([][]time.Duration, cfg.Concurrency)
	// One idle connection per client goroutine, so the run measures the
	// gateway and not http.DefaultTransport redialling past two per host.
	transport := &http.Transport{MaxIdleConnsPerHost: cfg.Concurrency}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}

	start := time.Now()
	deadline := time.Time{}
	if cfg.MaxDuration > 0 {
		deadline = start.Add(cfg.MaxDuration)
	}
	interval := time.Duration(0)
	if cfg.TargetQPS > 0 {
		interval = time.Duration(float64(time.Second) / cfg.TargetQPS)
	}

	// The killer fires once the stream is mid-flight: a real SIGKILL to a
	// replica process while clients are in their request loops.
	killDone := make(chan error, 1)
	killed := false
	if cfg.KillPid > 0 {
		killed = true
		threshold := int64(float64(total) * cfg.KillAtFraction)
		go func() {
			halfTime := time.Time{}
			if cfg.MaxDuration > 0 {
				halfTime = start.Add(time.Duration(float64(cfg.MaxDuration) * cfg.KillAtFraction))
			}
			for next.Load() < threshold && (halfTime.IsZero() || time.Now().Before(halfTime)) {
				if ctx.Err() != nil {
					killDone <- nil
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
			if ctx.Err() == nil && next.Load() >= total {
				killDone <- ErrKillTooLate
				return
			}
			killDone <- syscall.Kill(cfg.KillPid, syscall.SIGKILL)
		}()
	}

	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lats []time.Duration
			localReplicas := map[string]uint64{}
			localModels := map[string]*ModelTally{}
			for {
				i := next.Add(1) - 1
				if i >= total {
					break
				}
				if ctx.Err() != nil {
					break
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				if interval > 0 {
					sched := start.Add(time.Duration(i) * interval)
					if d := time.Until(sched); d > 0 {
						time.Sleep(d)
					}
				}
				item := items[i%int64(len(items))]
				modelName := cfg.Models[int(i)%len(cfg.Models)]
				reqCtx := ctx
				var span *telemetry.Span
				if cfg.Tracer != nil {
					span = cfg.Tracer.StartRoot("loadgen.predict")
					span.SetAttr("model", modelName)
					reqCtx = telemetry.ContextWithSpan(ctx, span)
				}
				t0 := time.Now()
				resp, status, err := predictOnce(reqCtx, client, cfg, modelName, item.X)
				for attempt := 0; err != nil && attempt < cfg.Retries; attempt++ {
					if ctx.Err() != nil {
						break
					}
					retried.Add(1)
					if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
						rejected.Add(1)
						time.Sleep(50 * time.Millisecond)
					}
					resp, status, err = predictOnce(reqCtx, client, cfg, modelName, item.X)
				}
				span.EndErr(err)
				if err != nil {
					errorsN.Add(1)
					continue
				}
				lats = append(lats, time.Since(t0))
				requests.Add(1)
				if resp.GatewayCached {
					cached.Add(1)
				}
				if resp.Replica != "" {
					localReplicas[resp.Replica]++
				}
				mt := localModels[modelName]
				if mt == nil {
					mt = &ModelTally{Model: modelName}
					localModels[modelName] = mt
				}
				mt.Requests++
				if resp.Class == item.Y {
					correct.Add(1)
					mt.Correct++
				}
			}
			mu.Lock()
			for k, v := range localReplicas {
				replicas[k] += v
			}
			for k, v := range localModels {
				g := byModel[k]
				if g == nil {
					g = &ModelTally{Model: k}
					byModel[k] = g
				}
				g.Requests += v.Requests
				g.Correct += v.Correct
			}
			latencies[w] = lats
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if cfg.KillPid > 0 {
		if err := <-killDone; err != nil {
			return nil, fmt.Errorf("gateway: mid-load kill: %w", err)
		}
	}

	out := &LoadResult{
		Requests:      requests.Load(),
		Errors:        errorsN.Load(),
		Rejected:      rejected.Load(),
		Retried:       retried.Load(),
		Duration:      elapsed,
		Correct:       correct.Load(),
		GatewayCached: cached.Load(),
		ByReplica:     replicas,
		Killed:        killed,
	}
	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		q := func(p float64) time.Duration {
			i := int(p * float64(len(all)))
			if i >= len(all) {
				i = len(all) - 1
			}
			return all[i]
		}
		out.LatencyP50, out.LatencyP90, out.LatencyP99 = q(0.50), q(0.90), q(0.99)
		out.LatencyMax = all[len(all)-1]
	}
	names := make([]string, 0, len(byModel))
	for k := range byModel {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		out.Models = append(out.Models, *byModel[k])
	}

	// The gateway's own accounting — failovers, evictions, session cache,
	// and the per-model shrink stats the affinity gate asserts on.
	st, err := fetchState(ctx, client, cfg.URL)
	if err != nil {
		return nil, fmt.Errorf("gateway: read /v1/state after load: %w", err)
	}
	if st.Gateway == nil {
		return nil, errors.New("gateway: /v1/state has no gateway section")
	}
	out.Gateway = *st.Gateway
	return out, nil
}

// predictOnce issues one predict through the gateway's middleware chain.
// The returned status is 0 on transport errors.
func predictOnce(ctx context.Context, client *http.Client, cfg LoadConfig, model string, x []float64) (httpapi.PredictResponse, int, error) {
	var resp httpapi.PredictResponse
	body, err := json.Marshal(httpapi.PredictRequest{X: x, Model: model})
	if err != nil {
		return resp, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.URL+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return resp, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+cfg.Token)
	}
	if c := telemetry.SpanFromContext(ctx).Context(); c.Valid() {
		telemetry.Inject(req.Header, c)
	}
	res, err := client.Do(req)
	if err != nil {
		return resp, 0, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		return resp, res.StatusCode, err
	}
	if res.StatusCode != http.StatusOK {
		var eb httpapi.ErrorBody
		_ = json.Unmarshal(raw, &eb)
		return resp, res.StatusCode, fmt.Errorf("gateway answered %d: %s", res.StatusCode, eb.Error)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, res.StatusCode, err
	}
	return resp, res.StatusCode, nil
}

// fetchState reads the gateway's /v1/state envelope.
func fetchState(ctx context.Context, client *http.Client, url string) (*httpapi.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/state", nil)
	if err != nil {
		return nil, err
	}
	res, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	var st httpapi.State
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Artifact converts a load result into the versioned BENCH_gateway.json
// form.
func (r *LoadResult) Artifact(cp *service.Checkpoint, cfg LoadConfig) *experiments.GatewayArtifact {
	cfg = cfg.withDefaults()
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	replicaCount := 0
	for _, m := range r.Gateway.Models {
		replicaCount += len(m.Replicas)
	}
	a := &experiments.GatewayArtifact{
		Schema: experiments.GatewaySchemaVersion,
		Name:   experiments.GatewayArtifactName,
		Options: experiments.GatewayOptions{
			CheckpointWindows: cp.WindowsDone,
			Parties:           len(cp.Aggregator.Assignment),
			SamplesPerParty:   cfg.SamplesPerParty,
			TestPerParty:      cfg.TestPerParty,
			Seed:              cp.Seed,
			Models:            cfg.Models,
			Replicas:          replicaCount,
			TargetQPS:         cfg.TargetQPS,
			Concurrency:       cfg.Concurrency,
			Repeat:            cfg.Repeat,
			ClientRetries:     cfg.Retries,
			PredictChain:      r.Gateway.Middlewares[RoutePredict],
			KillReplica:       r.Killed,
		},
		Requests:         r.Requests,
		Errors:           r.Errors,
		Rejected:         r.Rejected,
		Retried:          r.Retried,
		DurationMs:       ms(r.Duration),
		ThroughputPerSec: r.Throughput(),
		LatencyMsP50:     ms(r.LatencyP50),
		LatencyMsP90:     ms(r.LatencyP90),
		LatencyMsP99:     ms(r.LatencyP99),
		LatencyMsMax:     ms(r.LatencyMax),
		Accuracy:         r.Accuracy(),
		Failovers:        r.Gateway.Failovers,
		Evictions:        r.Gateway.Evictions,
		Readmissions:     r.Gateway.Readmissions,
	}
	if r.Killed {
		a.Options.KillAtFraction = cfg.KillAtFraction
	}
	if hits, misses := r.Gateway.SessionHits, r.Gateway.SessionMisses; hits+misses > 0 {
		a.SessionHitRate = float64(hits) / float64(hits+misses)
	}
	gw := make(map[string]httpapi.GatewayModelState, len(r.Gateway.Models))
	for _, m := range r.Gateway.Models {
		gw[m.Name] = m
	}
	for _, t := range r.Models {
		mr := experiments.GatewayModelResult{Model: t.Model, Requests: t.Requests}
		if t.Requests > 0 {
			mr.Accuracy = float64(t.Correct) / float64(t.Requests)
		}
		if st, ok := gw[t.Model]; ok {
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
