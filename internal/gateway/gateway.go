// Package gateway is the front tier of the ShiftEx serving stack: one
// process that owns a registry of named models (checkpoint lineages), each
// backed by a fleet of shiftex-serve replicas, and routes /v1 traffic to
// them with consistent-hash affinity.
//
// The design goals, in order:
//
//   - affinity: the same input always lands on the same replica (Ring), so
//     replica-local route caches and micro-batch buckets stay hot, and a
//     fleet shrink moves only the dead replica's keys;
//   - availability: a failed replica call fails over to the next ring
//     successor, repeated failures evict the replica, and the health prober
//     re-admits it when it answers again — clients see retries, not errors;
//   - policy at the edge: a config-selected middleware chain (auth, rate
//     limit, admission control, logging) runs before any replica is
//     touched, chosen by name from availableMiddlewares exactly like
//     adaptation policies are chosen from their registry;
//   - transparency: the gateway speaks the same /v1 surface as a single
//     replica (shared httpapi schema), so promoting a deployment from one
//     serve process to a sharded fleet changes an address, not a client.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Gateway routes model-addressed requests across serve replica fleets.
// Build with New, start background health probing with Start, serve
// Handler over HTTP, then Close.
type Gateway struct {
	cfg     Config
	fan     service.FanoutConfig
	reg     *registry
	session *sessionCache
	// client serves probes, scrapes and swaps; the predict path calls its
	// Transport — the one upstream connection pool — directly.
	client  *http.Client
	logger  *slog.Logger
	tracer  *telemetry.Tracer
	start   time.Time
	metrics gwMetrics

	chains map[string]Middleware

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// gwMetrics are the gateway's own counters (replica metrics live on the
// replicas; scrape both).
type gwMetrics struct {
	requests      atomic.Uint64
	errors        atomic.Uint64
	rejected      atomic.Uint64
	sessionHits   atomic.Uint64
	sessionMisses atomic.Uint64
	failovers     atomic.Uint64
	evictions     atomic.Uint64
	readmissions  atomic.Uint64
	logged        atomic.Uint64
}

// New builds a gateway from config. Middleware chains are resolved here:
// an unknown middleware name or route group is a startup error naming the
// live vocabulary, so a misconfigured deployment never comes up half
// protected.
func New(cfg Config, logger *slog.Logger) (*Gateway, error) {
	cfg = cfg.withDefaults()
	// Replica hops go direct and uncompressed, one idle connection per admitted
	// request (http.DefaultTransport's two per host redial at any concurrency).
	transport := &http.Transport{
		MaxIdleConnsPerHost: cfg.MaxInflight,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	g := &Gateway{
		cfg:     cfg,
		fan:     cfg.Fanout.toService(),
		reg:     newRegistry(cfg.Models, cfg.Vnodes),
		session: newSessionCache(cfg.SessionCache),
		client:  &http.Client{Transport: transport, Timeout: cfg.Fanout.toService().Timeout},
		logger:  logger,
		start:   time.Now(),
		chains:  make(map[string]Middleware),
		stop:    make(chan struct{}),
	}
	validGroups := map[string]bool{RoutePredict: true, RouteAdmin: true}
	for group, names := range cfg.Middlewares {
		if !validGroups[group] {
			return nil, fmt.Errorf("gateway: unknown middleware route group %q (available: %s, %s)",
				group, RouteAdmin, RoutePredict)
		}
		chain, err := buildChain(g, names)
		if err != nil {
			return nil, err
		}
		g.chains[group] = chain
	}
	for group := range validGroups {
		if _, ok := g.chains[group]; !ok {
			g.chains[group] = func(next http.Handler) http.Handler { return next }
		}
	}
	return g, nil
}

// SetTracer installs the span recorder. Call before Handler; a nil
// tracer (the default) disables tracing.
func (g *Gateway) SetTracer(t *telemetry.Tracer) { g.tracer = t }

// Tracer returns the installed span recorder (nil when tracing is off).
func (g *Gateway) Tracer() *telemetry.Tracer { return g.tracer }

// logInfo and logWarn emit structured records when a logger is
// configured; the context correlates them with the active trace.
func (g *Gateway) logInfo(ctx context.Context, msg string, args ...any) {
	if g.logger != nil {
		g.logger.InfoContext(ctx, msg, args...)
	}
}

func (g *Gateway) logWarn(ctx context.Context, msg string, args ...any) {
	if g.logger != nil {
		g.logger.WarnContext(ctx, msg, args...)
	}
}

// Start launches the health prober. Safe to skip in tests that drive
// probes manually.
func (g *Gateway) Start() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(time.Duration(g.cfg.ProbeEveryMs) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.ProbeAll()
			}
		}
	}()
}

// Close stops background probing and drops idle replica connections.
func (g *Gateway) Close() {
	g.once.Do(func() { close(g.stop) })
	g.wg.Wait()
	g.client.CloseIdleConnections()
}

// ProbeAll health-checks every registered replica of every model once,
// concurrently per model fleet on the shared fan-out machinery. Exported
// so tests and the registration path can force a probe cycle.
func (g *Gateway) ProbeAll() {
	for _, m := range g.reg.all() {
		addrs := m.replicaAddrs()
		noRetry := g.fan
		noRetry.Retries = 0
		_, _ = service.FanOut(noRetry, addrs, "probe",
			func(a string) string { return fmt.Sprintf("replica %s", a) }, nil,
			func(addr string) (struct{}, error) {
				sum, err := g.fetchSnapshot(context.Background(), addr, m.name)
				if err != nil {
					if m.noteFailure(addr, g.cfg.EvictAfter) {
						g.metrics.evictions.Add(1)
						g.logWarn(context.Background(), "replica evicted",
							"replica", addr, "model", m.name, "error", err.Error())
					}
					return struct{}{}, err
				}
				if m.noteSuccess(addr, sum.Version) {
					g.metrics.readmissions.Add(1)
					g.logInfo(context.Background(), "replica re-admitted",
						"replica", addr, "model", m.name, "snapshot", sum.Version)
				}
				// Best-effort drift scrape (?n=0: the aggregate, no eval
				// ring): fleet aggregation rides the probe cycle, and a
				// replica without a monitor (or one still calibrating)
				// simply contributes nothing.
				if ds, err := getJSON[monitor.DriftState](context.Background(), g, addr, "/v1/debug/drift?n=0", "drift state"); err == nil &&
					ds.Enabled && ds.Summary != nil && ds.Summary.Calibrated {
					m.noteDrift(addr, ds.Summary.Score)
				}
				// Same contract for the continual-adaptation plane: a
				// replica without a controller contributes nothing.
				if as, err := getJSON[httpapi.ContinualDebugState](context.Background(), g, addr, "/v1/debug/adapt", "adapt state"); err == nil &&
					as.Enabled && as.State != nil {
					m.noteAdapt(addr, as.State.Phase, as.State.WindowsCompleted)
				}
				return struct{}{}, nil
			})
	}
}

// clientError is a replica answer that must reach the client as-is (4xx:
// the request itself is wrong) instead of triggering failover.
type clientError struct {
	status int
	body   httpapi.ErrorBody
}

func (e *clientError) Error() string {
	return fmt.Sprintf("replica answered %d: %s", e.status, e.body.Error)
}

// errUnknownModel asks callers to render the gateway's own model listing.
var errUnknownModel = errors.New("gateway: unknown model")

// Predict routes one input: session cache, then the key's ring owner,
// then ring successors on failure. The returned status is the HTTP code
// the caller should answer with.
func (g *Gateway) Predict(ctx context.Context, modelName string, x tensor.Vector) (httpapi.PredictResponse, int, error) {
	g.metrics.requests.Add(1)
	// span is nil on untraced requests; every call below no-ops then.
	span := telemetry.SpanFromContext(ctx).Child("gateway.route")
	defer span.End()
	// Downstream replica calls propagate the route span, so the serve
	// tier's spans parent under it.
	ctx = telemetry.ContextWithSpan(ctx, span)
	m := g.reg.model(modelName)
	if m == nil {
		g.metrics.errors.Add(1)
		span.SetError(errUnknownModel)
		return httpapi.PredictResponse{}, http.StatusNotFound, errUnknownModel
	}
	span.SetAttr("model", m.name)

	key := KeyHash(x)
	if resp, ok := g.session.get(m.name, key, m.knownVersion()); ok {
		g.metrics.sessionHits.Add(1)
		resp.GatewayCached = true
		span.SetAttrBool("session.hit", true)
		return resp, http.StatusOK, nil
	}
	g.metrics.sessionMisses.Add(1)
	span.SetAttrBool("session.hit", false)

	// Owner records the affinity assignment; Successors is the failover
	// order starting from that owner.
	owner := m.ring.Owner(key)
	span.SetAttr("ring.owner", owner)
	candidates := m.ring.Successors(key, m.ring.Len())
	if span != nil {
		// The failover chain the request would walk, owner first.
		span.SetAttr("ring.successors", strings.Join(candidates, ","))
	}
	if len(candidates) == 0 {
		g.metrics.errors.Add(1)
		err := fmt.Errorf("gateway: no healthy replicas for model %q", m.name)
		span.SetError(err)
		return httpapi.PredictResponse{}, http.StatusServiceUnavailable, err
	}

	var failures []error
	for i, addr := range candidates {
		resp, err := g.callPredict(ctx, m, addr, x)
		if err == nil {
			if i > 0 {
				g.metrics.failovers.Add(1)
			}
			if m.noteSuccess(addr, resp.Snapshot) {
				g.metrics.readmissions.Add(1)
			}
			resp.Replica = addr
			g.session.put(m.name, key, resp.Snapshot, resp)
			span.SetAttr("replica", addr)
			span.SetAttrInt("failover.attempts", int64(i))
			return resp, http.StatusOK, nil
		}
		var ce *clientError
		if errors.As(err, &ce) {
			// The request is at fault; no other replica would answer
			// differently and this is not a replica health signal.
			g.metrics.errors.Add(1)
			span.SetError(err)
			return httpapi.PredictResponse{}, ce.status, err
		}
		failures = append(failures, fmt.Errorf("replica %s: %w", addr, err))
		if m.noteFailure(addr, g.cfg.EvictAfter) {
			g.metrics.evictions.Add(1)
			g.logWarn(ctx, "replica evicted",
				"replica", addr, "model", m.name, "error", err.Error())
		}
	}
	g.metrics.errors.Add(1)
	err := fmt.Errorf("gateway: all %d replicas failed for model %q: %w",
		len(candidates), m.name, errors.Join(failures...))
	span.SetError(err)
	return httpapi.PredictResponse{}, http.StatusBadGateway, err
}

// jsonHeader is the request header of every untraced replica predict;
// shared and never written (a traced call copies it to add traceparent).
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// callPredict proxies one predict to one replica under the per-call timeout;
// when it fires the upstream request is cancelled and the error is
// service.ErrCallTimeout. A 4xx replica answer comes back as *clientError
// (terminal); everything else is a replica failure eligible for failover.
func (g *Gateway) callPredict(ctx context.Context, m *model, addr string, x tensor.Vector) (httpapi.PredictResponse, error) {
	d := g.fan.Timeout
	if d <= 0 {
		return g.roundTripPredict(ctx, m, addr, x)
	}
	callCtx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	resp, err := g.roundTripPredict(callCtx, m, addr, x)
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		err = fmt.Errorf("%w after %s", service.ErrCallTimeout, d)
	}
	return resp, err
}

// roundTripPredict is one POST /v1/predict on the shared transport, body
// and answer both in pooled scratch.
func (g *Gateway) roundTripPredict(ctx context.Context, m *model, addr string, x tensor.Vector) (resp httpapi.PredictResponse, err error) {
	out := httpapi.GetScratch()
	defer out.Release()
	if out.Buf, err = httpapi.AppendPredictRequest(out.Buf, x, m.name); err != nil {
		return resp, err
	}
	header := jsonHeader
	if c := telemetry.SpanFromContext(ctx).Context(); c.Valid() {
		header = jsonHeader.Clone()
		telemetry.Inject(header, c)
	}
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           m.predictURL(addr),
		Header:        header,
		Body:          out.Reader(),
		GetBody:       out.GetBody,
		ContentLength: int64(len(out.Buf)),
	}).WithContext(ctx)
	res, err := g.client.Transport.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	defer res.Body.Close()
	in := httpapi.GetScratch()
	defer in.Release()
	if err := in.ReadBody(res.Body); err != nil {
		return resp, fmt.Errorf("replica status %d: reading answer: %w", res.StatusCode, err)
	}
	switch status := res.StatusCode; {
	case status >= 400 && status < 500:
		var eb httpapi.ErrorBody
		_ = json.Unmarshal(in.Buf, &eb) // a non-JSON 4xx still reaches the client, with an empty message
		return resp, &clientError{status: status, body: eb}
	case status != http.StatusOK:
		return resp, fmt.Errorf("replica status %d: %s", status, bytes.TrimSpace(in.Buf))
	}
	if err := httpapi.DecodePredictResponse(in.Buf, m.name, &resp); err != nil {
		return resp, fmt.Errorf("bad replica response: %w", err)
	}
	return resp, nil
}

// getJSON GETs a replica path and decodes its 200 answer; what names the
// payload in the decode error.
func getJSON[T any](ctx context.Context, g *Gateway, addr, path, what string) (T, error) {
	var v T
	status, raw, err := g.call(ctx, http.MethodGet, addr, path, nil)
	if err != nil {
		return v, err
	}
	if status != http.StatusOK {
		return v, fmt.Errorf("replica status %d: %s", status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, fmt.Errorf("bad %s: %w", what, err)
	}
	return v, nil
}

// fetchSnapshot reads a replica's snapshot summary (also the health
// probe: a replica that can summarize its snapshot can serve).
func (g *Gateway) fetchSnapshot(ctx context.Context, addr, modelName string) (httpapi.SnapshotSummary, error) {
	sum, err := getJSON[httpapi.SnapshotSummary](ctx, g, addr, "/v1/snapshot", "snapshot summary")
	if err == nil && sum.Model != modelName {
		err = fmt.Errorf("replica serves model %q, registered under %q", sum.Model, modelName)
	}
	return sum, err
}

// call issues one cold-path request (probe, scrape, swap) to a replica and
// returns status + body; a non-nil body is sent as JSON.
func (g *Gateway) call(ctx context.Context, method, addr, path string, body []byte) (int, []byte, error) {
	var rd io.Reader // stays a nil interface for a bodiless request
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the active trace to the replica so its spans join ours.
	if c := telemetry.SpanFromContext(ctx).Context(); c.Valid() {
		telemetry.Inject(req.Header, c)
	}
	res, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	return res.StatusCode, raw, err
}

// BroadcastSwap fans a snapshot hot-swap out to every registered replica
// of the model (healthy or not — a replica that misses a swap must fail
// the broadcast visibly, or it would serve the retired snapshot after
// re-admission). The broadcast succeeds when the configured quorum of
// replicas swapped; the returned summary is the newest resulting
// snapshot.
func (g *Gateway) BroadcastSwap(ctx context.Context, modelName, path string) (httpapi.SnapshotSummary, int, error) {
	m := g.reg.model(modelName)
	if m == nil {
		return httpapi.SnapshotSummary{}, http.StatusNotFound, errUnknownModel
	}
	addrs := m.replicaAddrs()
	if len(addrs) == 0 {
		return httpapi.SnapshotSummary{}, http.StatusServiceUnavailable,
			fmt.Errorf("gateway: no replicas registered for model %q", m.name)
	}
	body, err := json.Marshal(httpapi.SwapRequest{Path: path, Model: m.name})
	if err != nil {
		return httpapi.SnapshotSummary{}, http.StatusInternalServerError, err
	}
	results, errs := service.FanOut(g.fan, addrs, "swap",
		func(a string) string { return fmt.Sprintf("replica %s", a) }, nil,
		func(addr string) (httpapi.SnapshotSummary, error) {
			status, raw, err := g.call(ctx, http.MethodPost, addr, "/v1/snapshot", body)
			if err != nil {
				return httpapi.SnapshotSummary{}, err
			}
			if status != http.StatusOK {
				var eb httpapi.ErrorBody
				_ = json.Unmarshal(raw, &eb)
				return httpapi.SnapshotSummary{}, fmt.Errorf("replica status %d: %s", status, eb.Error)
			}
			var sum httpapi.SnapshotSummary
			if err := json.Unmarshal(raw, &sum); err != nil {
				return httpapi.SnapshotSummary{}, err
			}
			m.noteSuccess(addr, sum.Version)
			return sum, nil
		})
	var best httpapi.SnapshotSummary
	ok := 0
	var failures []error
	for i := range results {
		if errs[i] != nil {
			failures = append(failures, errs[i])
			continue
		}
		ok++
		if results[i].Version >= best.Version {
			best = results[i]
		}
	}
	if need := g.fan.QuorumNeed(len(addrs)); ok < need {
		return httpapi.SnapshotSummary{}, http.StatusBadGateway,
			fmt.Errorf("gateway: swap below quorum: %d of %d replicas swapped (need %d): %w",
				ok, len(addrs), need, errors.Join(failures...))
	}
	return best, http.StatusOK, nil
}

// ModelCard builds the gateway's view of a model: a healthy replica's
// card plus the fleet standing. The card matches what the replica itself
// serves, so single-model clients see identical bodies from both tiers.
func (g *Gateway) ModelCard(ctx context.Context, name string) (httpapi.ModelInfo, int, error) {
	m := g.reg.model(name)
	if m == nil {
		return httpapi.ModelInfo{}, http.StatusNotFound, errUnknownModel
	}
	st := m.state()
	sum, err := g.anySnapshot(ctx, m)
	if err != nil {
		return httpapi.ModelInfo{}, http.StatusServiceUnavailable,
			fmt.Errorf("gateway: no replica of %q answered: %w", m.name, err)
	}
	return httpapi.ModelInfo{
		SchemaVersion: httpapi.SchemaVersion,
		Name:          m.name,
		Snapshot:      sum.Version,
		Experts:       sum.Experts,
		Epsilon:       sum.Epsilon,
		RouteEpsilon:  sum.RouteEpsilon,
		WindowsDone:   sum.WindowsDone,
		InputDim:      sum.InputDim,
		Policy:        sum.Policy,
		Replicas:      st.Replicas,
	}, http.StatusOK, nil
}

// anySnapshot fetches a snapshot summary from the first answering ring
// member.
func (g *Gateway) anySnapshot(ctx context.Context, m *model) (httpapi.SnapshotSummary, error) {
	var failures []error
	for _, addr := range m.ring.Members() {
		sum, err := g.fetchSnapshot(ctx, addr, m.name)
		if err == nil {
			m.noteSuccess(addr, sum.Version)
			return sum, nil
		}
		failures = append(failures, fmt.Errorf("replica %s: %w", addr, err))
	}
	if len(failures) == 0 {
		failures = append(failures, errors.New("no healthy replicas"))
	}
	return httpapi.SnapshotSummary{}, errors.Join(failures...)
}

// Register adds a replica under a model at runtime and probes it
// immediately so its health and snapshot version are accurate in the
// response.
func (g *Gateway) Register(ctx context.Context, modelName, addr string) (httpapi.GatewayModelState, error) {
	if modelName == "" {
		modelName = httpapi.DefaultModel
	}
	m := g.reg.addReplica(modelName, addr)
	sum, err := g.fetchSnapshot(ctx, addr, m.name)
	if err != nil {
		if m.noteFailure(addr, 1) { // immediate eviction: it never answered
			g.metrics.evictions.Add(1)
		}
		return m.state(), fmt.Errorf("gateway: registered %s but probe failed: %w", addr, err)
	}
	m.noteSuccess(addr, sum.Version)
	return m.state(), nil
}

// State renders the gateway's /v1/state section.
func (g *Gateway) State() httpapi.GatewayState {
	models := g.reg.all()
	states := make([]httpapi.GatewayModelState, 0, len(models))
	for _, m := range models {
		states = append(states, m.state())
	}
	return httpapi.GatewayState{
		Models:        states,
		Requests:      g.metrics.requests.Load(),
		Errors:        g.metrics.errors.Load(),
		Rejected:      g.metrics.rejected.Load(),
		SessionHits:   g.metrics.sessionHits.Load(),
		SessionMisses: g.metrics.sessionMisses.Load(),
		Failovers:     g.metrics.failovers.Load(),
		Evictions:     g.metrics.evictions.Load(),
		Readmissions:  g.metrics.readmissions.Load(),
		Middlewares:   g.cfg.Middlewares,
	}
}
