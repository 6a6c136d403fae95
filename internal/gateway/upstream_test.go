package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/tensor"
)

// inputOwnedBy draws inputs until the ring assigns one to owner.
func inputOwnedBy(t *testing.T, g *Gateway, rng *tensor.RNG, dim int, owner string) tensor.Vector {
	t.Helper()
	ring := g.reg.model("default").ring
	for i := 0; i < 1000; i++ {
		if x := rng.NormVec(dim, 0, 1); ring.Successors(KeyHash(x), 1)[0] == owner {
			return x
		}
	}
	t.Fatalf("no input owned by %s in 1000 draws", owner)
	return nil
}

// TestGatewaySlowReplicaTimesOutAndFailsOver is the fault between "up" and
// "dead": a replica that accepts the request and then says nothing. The
// per-call timeout must cut the upstream request (the replica sees its
// context cancelled), report service.ErrCallTimeout, fail over to the next
// ring member, and leave no goroutine behind.
func TestGatewaySlowReplicaTimesOutAndFailsOver(t *testing.T) {
	const timeout = 150 * time.Millisecond
	cancelled := make(chan struct{}, 4) // one send per slow request; the test makes two
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // the server only watches for a hang-up once the body is read
		select {
		case <-r.Context().Done():
			cancelled <- struct{}{}
		case <-time.After(10 * time.Second):
		}
	}))
	defer slow.Close()
	slowAddr := strings.TrimPrefix(slow.URL, "http://")
	fastAddr, _ := startReplica(t, "default")
	cfg := Config{
		Models:       map[string][]string{"default": {slowAddr, fastAddr}},
		Middlewares:  map[string][]string{RoutePredict: {}, RouteAdmin: {}},
		EvictAfter:   100, // keep the slow replica in the ring
		SessionCache: -1,
		Fanout:       FanoutJSON{TimeoutMs: int(timeout / time.Millisecond)},
	}
	g := newTestGateway(t, cfg)
	dim := inputDim(t)
	rng := tensor.NewRNG(21)

	// Warm the connection to the fast replica, then take the baseline.
	if _, _, err := g.Predict(context.Background(), "", inputOwnedBy(t, g, rng, dim, fastAddr)); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	start := time.Now()
	resp, status, err := g.Predict(context.Background(), "", inputOwnedBy(t, g, rng, dim, slowAddr))
	elapsed := time.Since(start)
	if err != nil || status != http.StatusOK || resp.Replica != fastAddr {
		t.Fatalf("predict owned by the slow replica: %+v, %d, %v; want an answer from %s", resp, status, err, fastAddr)
	}
	if elapsed < timeout || elapsed > timeout+2*time.Second {
		t.Errorf("failover took %s, want about the %s timeout", elapsed, timeout)
	}
	if f := g.State().Failovers; f != 1 {
		t.Errorf("failovers = %d, want 1", f)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the slow replica never saw its request cancelled: the upstream call was abandoned, not cut")
	}

	// A lone slow replica: nothing to fail over to, and the cause is named.
	cfg.Models = map[string][]string{"default": {slowAddr}}
	lone := newTestGateway(t, cfg)
	_, status, err = lone.Predict(context.Background(), "", rng.NormVec(dim, 0, 1))
	if status != http.StatusBadGateway || !errors.Is(err, service.ErrCallTimeout) {
		t.Errorf("lone slow replica: status %d, error %v; want 502 wrapping service.ErrCallTimeout", status, err)
	}
	<-cancelled
	lone.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the timeouts, %d before", n, baseline)
	}
}

// A caller that gives up is not a slow replica: the error is the caller's
// own, not the per-call timeout.
func TestGatewayCallerCancelIsNotCallTimeout(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer slow.Close()
	g := newTestGateway(t, Config{
		Models:      map[string][]string{"default": {strings.TrimPrefix(slow.URL, "http://")}},
		Middlewares: map[string][]string{RoutePredict: {}, RouteAdmin: {}},
		Fanout:      FanoutJSON{TimeoutMs: 5000},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err := g.Predict(ctx, "", tensor.Vector{1, 2})
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, service.ErrCallTimeout) {
		t.Errorf("error %v; want the caller's deadline, not service.ErrCallTimeout", err)
	}
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestGatewayUpstreamConnectionReuse pins that replica connections are
// reused at concurrency: the upstream pool keeps an idle connection per
// admitted request, where http.DefaultTransport's two per host redialled
// for most of these 2000 predicts.
func TestGatewayUpstreamConnectionReuse(t *testing.T) {
	const clients, total = 8, 2000
	_, srv := startReplica(t, "default")
	ts := httptest.NewUnstartedServer(srv.Handler())
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()
	g := newTestGateway(t, Config{
		Models:      map[string][]string{"default": {strings.TrimPrefix(ts.URL, "http://")}},
		Middlewares: map[string][]string{RoutePredict: {}, RouteAdmin: {}},
	})
	dim := inputDim(t)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(100 + c))
			for i := 0; i < total/clients; i++ {
				if _, _, err := g.Predict(context.Background(), "", rng.NormVec(dim, 0, 1)); err != nil {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d of %d predicts failed", failed.Load(), total)
	}
	// Usually exactly 8. A connection goes back to the pool a moment after
	// its answer is read, so a closed-loop caller now and then finds the pool
	// empty and dials one more (up to 13 seen); redialling past two idle
	// connections took 122 and grows with the number of predicts.
	if n := ln.accepts.Load(); n > 4*clients {
		t.Errorf("replica accepted %d connections for %d predicts at concurrency %d, want <= %d", n, total, clients, 4*clients)
	}
}

// TestPredictBodyCaps sends both tiers the two hostile bodies: one that
// declares 2 MiB and one that never ends. Each must answer 413 with the
// uniform error body instead of buffering it. A replica that answers with
// more than the cap is a failed replica, not an out-of-memory gateway.
func TestPredictBodyCaps(t *testing.T) {
	replica, _ := startReplica(t, "default")
	g := newTestGateway(t, Config{
		Models:      map[string][]string{"default": {replica}},
		Middlewares: map[string][]string{RoutePredict: {"logging"}, RouteAdmin: {}},
	})
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	client := &http.Client{Timeout: 20 * time.Second}
	defer client.CloseIdleConnections()
	for tier, base := range map[string]string{"serve": "http://" + replica, "gateway": front.URL} {
		bodies := map[string]io.Reader{
			"2 MiB":   bytes.NewReader(bytes.Repeat([]byte{' '}, 2<<20)),
			"endless": &endlessBody{},
		}
		for name, body := range bodies {
			res, err := client.Post(base+"/v1/predict", "application/json", body)
			if err != nil {
				t.Errorf("%s, %s body: %v", tier, name, err)
				continue
			}
			var eb httpapi.ErrorBody
			err = json.NewDecoder(res.Body).Decode(&eb)
			res.Body.Close()
			if res.StatusCode != http.StatusRequestEntityTooLarge || err != nil || eb.Error == "" {
				t.Errorf("%s, %s body: status %d, error body %+v (%v); want 413", tier, name, res.StatusCode, eb, err)
			}
		}
		if e, ok := bodies["endless"].(*endlessBody); ok && e.n.Load() > 16<<20 {
			t.Errorf("%s read %d bytes of an endless body", tier, e.n.Load())
		}
	}

	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(bytes.Repeat([]byte{' '}, 2<<20))
	}))
	defer huge.Close()
	g2 := newTestGateway(t, Config{
		Models:      map[string][]string{"default": {strings.TrimPrefix(huge.URL, "http://")}},
		Middlewares: map[string][]string{RoutePredict: {}, RouteAdmin: {}},
	})
	_, status, err := g2.Predict(context.Background(), "", tensor.Vector{1})
	if status != http.StatusBadGateway || !errors.Is(err, httpapi.ErrBodyTooLarge) {
		t.Errorf("oversized replica answer: status %d, error %v; want 502 wrapping ErrBodyTooLarge", status, err)
	}
}

// endlessBody is a request body with no declared length and no end, so the
// client sends it chunked until the server hangs up.
type endlessBody struct{ n atomic.Int64 }

func (e *endlessBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	e.n.Add(int64(len(p)))
	return len(p), nil
}

// With no logger configured the logging middleware only counts.
func TestLoggingMiddlewareNilLoggerAllocatesNothing(t *testing.T) {
	g := newTestGateway(t, Config{Middlewares: map[string][]string{RoutePredict: {"logging"}, RouteAdmin: {}}})
	h := g.chains[RoutePredict](http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	rec, req := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	before := g.metrics.logged.Load()
	if n := testing.AllocsPerRun(100, func() { h.ServeHTTP(rec, req) }); n != 0 {
		t.Errorf("logging middleware with a nil logger: %v allocs per request, want 0", n)
	}
	if g.metrics.logged.Load() == before {
		t.Error("requests not counted")
	}
}
