package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ServerTarget drives an in-process serve.Server.
type ServerTarget struct{ Server *serve.Server }

// Predict issues the request with an uncancellable context: the driver
// checks its own between requests, so cancellation still lands within one
// request (microseconds), and the pipeline's result wait can take the plain
// channel receive instead of selectgo — measurably cheaper at batched
// throughput. The server serves one model; the name is not looked at.
func (t ServerTarget) Predict(_ context.Context, _ string, x tensor.Vector, parent *telemetry.Span, t0 time.Time) (Answer, error) {
	res, err := t.Server.PredictSpan(context.Background(), x, parent, t0)
	return Answer{Class: res.Class, Expert: res.Expert, Matched: res.Matched}, err
}

// retryBackoff is how long a client waits after a 429 or 503 before it
// tries again.
const retryBackoff = 50 * time.Millisecond

// HTTPTarget drives a RUNNING gateway (or replica) process over HTTP, so a
// run exercises the full middleware chain and real network failover, not
// in-process shortcuts.
type HTTPTarget struct {
	url     string
	token   string
	retries int
	client  *http.Client

	retried  atomic.Uint64
	rejected atomic.Uint64
}

// NewHTTPTarget returns a target for the base URL (no trailing slash). token
// is sent as a bearer token when non-empty; retries is the client-side retry
// budget per request — the gateway already fails over internally, client
// retries cover the race where the gateway itself is mid-eviction. conns is
// the number of client goroutines that will share the target: one idle
// connection each, so a run measures the server and not a transport
// redialling past the default two per host.
func NewHTTPTarget(url, token string, retries, conns int) *HTTPTarget {
	return &HTTPTarget{
		url: url, token: token, retries: retries,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: conns},
			Timeout:   10 * time.Second,
		},
	}
}

// Close drops the target's idle connections.
func (t *HTTPTarget) Close() { t.client.CloseIdleConnections() }

// Retried returns the retry attempts issued so far; Rejected the middleware
// rejections (401/429/503) observed.
func (t *HTTPTarget) Retried() uint64  { return t.retried.Load() }
func (t *HTTPTarget) Rejected() uint64 { return t.rejected.Load() }

// Predict posts one /v1/predict, retrying a failed attempt up to the retry
// budget: at once after a transport error or an unexpected status, after
// retryBackoff on 429/503. A 401 will not heal and fails the request at
// once.
func (t *HTTPTarget) Predict(ctx context.Context, model string, x tensor.Vector, parent *telemetry.Span, _ time.Time) (Answer, error) {
	body, err := httpapi.AppendPredictRequest(nil, x, model)
	if err != nil {
		return Answer{}, err
	}
	for attempt := 0; ; attempt++ {
		resp, status, err := t.post(ctx, body, parent.Context())
		if err == nil {
			return Answer{Class: resp.Class, Expert: resp.Expert, Matched: resp.Matched, GatewayCached: resp.GatewayCached}, nil
		}
		backoff := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		if backoff || status == http.StatusUnauthorized {
			t.rejected.Add(1)
		}
		if status == http.StatusUnauthorized || attempt >= t.retries || ctx.Err() != nil {
			return Answer{}, err
		}
		t.retried.Add(1)
		if backoff {
			select {
			case <-time.After(retryBackoff):
			case <-ctx.Done():
			}
		}
	}
}

// post is one attempt; the status is 0 on transport errors.
func (t *HTTPTarget) post(ctx context.Context, body []byte, trace telemetry.SpanContext) (resp httpapi.PredictResponse, status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return resp, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if t.token != "" {
		req.Header.Set("Authorization", "Bearer "+t.token)
	}
	if trace.Valid() {
		telemetry.Inject(req.Header, trace)
	}
	res, err := t.client.Do(req)
	if err != nil {
		return resp, 0, err
	}
	defer res.Body.Close()
	in := httpapi.GetScratch()
	defer in.Release()
	if err := in.ReadBody(res.Body); err != nil {
		return resp, res.StatusCode, fmt.Errorf("status %d: reading answer: %w", res.StatusCode, err)
	}
	if res.StatusCode != http.StatusOK {
		var eb httpapi.ErrorBody
		_ = json.Unmarshal(in.Buf, &eb) // a non-JSON error body still fails the attempt, with an empty message
		return resp, res.StatusCode, fmt.Errorf("status %d: %s", res.StatusCode, eb.Error)
	}
	if err := httpapi.DecodePredictResponse(in.Buf, "", &resp); err != nil {
		return resp, res.StatusCode, fmt.Errorf("bad answer: %w", err)
	}
	return resp, res.StatusCode, nil
}

// State reads the target's /v1/state envelope.
func (t *HTTPTarget) State(ctx context.Context) (*httpapi.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url+"/v1/state", nil)
	if err != nil {
		return nil, err
	}
	res, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/state: status %d", res.StatusCode)
	}
	var st httpapi.State
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET /v1/state: %w", err)
	}
	return &st, nil
}
