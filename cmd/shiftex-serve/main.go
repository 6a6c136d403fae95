// Command shiftex-serve is the ShiftEx inference-serving daemon: it loads a
// trained aggregator checkpoint (written by cmd/shiftex-aggregator) into an
// immutable serving snapshot and answers prediction requests over HTTP,
// routing each request to the expert whose latent memory matches the
// request's embedding signature and micro-batching per expert onto a
// zero-allocation worker pool.
//
//	shiftex-aggregator -load 8 -windows 3 -seed 42 -checkpoint ckpt.json
//	shiftex-serve -checkpoint ckpt.json -http 127.0.0.1:8090
//	curl -s -X POST -d '{"x":[0.1, ...]}' http://127.0.0.1:8090/v1/predict
//
// A running server picks up retrained checkpoints without dropping a
// request: POST /v1/snapshot {"path":"ckpt.json"} hot-swaps atomically, and
// SIGHUP re-reads the -checkpoint path in place. SIGINT/SIGTERM drain every
// in-flight batch before exit and write a final serving-metrics snapshot
// (-metrics-out).
//
// The daemon runs a live drift monitor by default (-monitor=false disables
// it): the batched routing path tees every routed embedding off-path into
// bounded sketches scored against the checkpoint's latent memories, surfaced
// on /v1/debug/drift and as shiftex_monitor_* metrics. -continual arms the
// adaptation controller on top of it: a confirmed drift crossing runs a live
// adaptation window against the monitor's sketches and hot-swaps the adapted
// snapshot (/v1/debug/adapt, shiftex_continual_* metrics).
//
// Every flag configures the daemon. Measuring it — load generation, the
// tracing, drift and closed-loop benchmarks, artifact checks — is
// cmd/shiftex-bench's job (serve-load, trace, drift, adapt-live, check).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/continual"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shiftex-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shiftex-serve", flag.ContinueOnError)
	checkpoint := fs.String("checkpoint", "", "aggregator checkpoint to serve (required; written by shiftex-aggregator -checkpoint)")
	httpAddr := fs.String("http", "127.0.0.1:8090", "serve the /v1 API (plus deprecated unversioned aliases) on this address")
	gatewayURL := fs.String("gateway", "", "self-register with this shiftex-gateway base URL at startup (POST /v1/replicas)")
	advertise := fs.String("advertise", "", "address to register at the gateway (default: the -http address)")
	var cfg serve.Config
	cfg.BindFlags(fs)
	fs.StringVar(&cfg.Model, "model", "", "model name this replica serves under (default \"default\"; must match the gateway registry entry)")
	metricsOut := fs.String("metrics-out", "", "write the final serving-metrics snapshot to this JSON file on shutdown")
	debugAddr := fs.String("debug-addr", "", "serve /v1/debug/pprof/ and /v1/debug/traces on this extra address (empty = off)")
	traceBuffer := fs.Int("trace-buffer", telemetry.DefaultRingSize, "span ring-buffer capacity for /v1/debug/traces")

	monitorOn := fs.Bool("monitor", true, "enable the live drift monitor (off-path tee of routed embeddings; surfaced on /v1/debug/drift and as shiftex_monitor_* metrics)")
	var monCfg monitor.Config
	monCfg.BindFlags(fs)

	continualOn := fs.Bool("continual", false, "arm the continual adaptation controller: on a confirmed drift crossing, run a live adaptation window against the monitor's sketches and hot-swap the adapted snapshot (requires -monitor; state on /v1/debug/adapt and as shiftex_continual_* metrics)")
	var ccfg continual.Config
	ccfg.BindFlags(fs)
	samples := fs.Int("samples", 120, "continual: scenario training samples per party per window (must match the checkpointed run)")
	testN := fs.Int("test", 60, "continual: scenario test samples per party per window (must match the checkpointed run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkpoint == "" {
		return errors.New("-checkpoint PATH is required\n  produce one with: shiftex-aggregator -load 8 -windows 3 -seed 42 -checkpoint ckpt.json")
	}

	cp, err := service.LoadCheckpoint(*checkpoint)
	if err != nil {
		return err
	}
	snap, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		return err
	}
	var mon *monitor.Monitor
	if *monitorOn {
		mon = monitor.New(monCfg)
		cfg.Monitor = mon
	}
	logger := telemetry.NewLogger(os.Stderr, "serve")
	tracer := telemetry.NewTracer("serve", *traceBuffer)
	cfg.Tracer = tracer
	if *debugAddr != "" {
		telemetry.ServeDebug(*debugAddr, tracer, func(err error) {
			logger.Error("debug listener failed", "error", err)
		})
	}
	srv, err := serve.NewServer(snap, cfg)
	if err != nil {
		return err
	}
	// Both radii are printed: ε is what training calibrated, the effective
	// radius is what routing actually compares against. The old line only
	// showed ε, which made -route-eps-scale invisible at startup.
	fmt.Printf("serving model %q: %d experts (snapshot v%d, %d windows trained, ε=%.4g, effective route ε=%.4g) from %s\n",
		srv.Model(), snap.NumExperts(), snap.Version, cp.WindowsDone,
		snap.Epsilon, srv.Snapshot().RouteEpsilon(), *checkpoint)

	if mon != nil {
		fmt.Printf("drift monitor enabled: /v1/debug/drift, shiftex_monitor_* on /v1/metrics\n")
	}
	var ctrl *continual.Controller
	if *continualOn {
		if mon == nil {
			return errors.New("-continual requires the drift monitor (drop -monitor=false)")
		}
		trainer, err := continual.NewLocalTrainer(cp, continual.TrainerConfig{
			SamplesPerParty: *samples,
			TestPerParty:    *testN,
		})
		if err != nil {
			return err
		}
		if ctrl, err = continual.New(mon, srv, trainer, ccfg); err != nil {
			return err
		}
		srv.AttachAdaptation(ctrl)
		ctrl.Start()
		st := ctrl.ContinualState()
		fmt.Printf("continual adaptation armed: hysteresis=%d cooldown=%.0fs validation=%t (/v1/debug/adapt, shiftex_continual_* on /v1/metrics)\n",
			st.Hysteresis, st.CooldownSeconds, !ccfg.Validation.Disabled)
	}

	httpSrv := &http.Server{Addr: *httpAddr, Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	fmt.Printf("listening on http://%s (/v1/predict /v1/snapshot /v1/models/{name} /v1/state /v1/healthz /v1/metrics + deprecated unversioned aliases)\n", *httpAddr)
	logger.Info("listening", "addr", *httpAddr, "model", srv.Model(),
		"snapshot", int64(srv.Snapshot().Version), "experts", snap.NumExperts(),
		"debugAddr", *debugAddr)

	if *gatewayURL != "" {
		regAddr := *advertise
		if regAddr == "" {
			regAddr = *httpAddr
		}
		// Registration is best-effort in the background: the gateway may
		// still be starting, and its health prober re-admits us anyway.
		go registerWithGateway(*gatewayURL, srv.Model(), regAddr)
	}

	// SIGHUP reloads the checkpoint in place; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for {
		select {
		case err := <-httpErr:
			if ctrl != nil {
				ctrl.Close()
			}
			_ = srv.Close()
			return fmt.Errorf("http: %w", err)
		case <-hup:
			if err := srv.SwapFromCheckpoint(*checkpoint); err != nil {
				fmt.Fprintln(os.Stderr, "shiftex-serve: reload:", err)
				continue
			}
			fmt.Printf("reloaded %s as snapshot v%d\n", *checkpoint, srv.Snapshot().Version)
		case <-ctx.Done():
			// Stop accepting HTTP traffic, stand the adaptation controller
			// down (a window in flight completes first), then drain the
			// batching pipeline so every admitted request is answered.
			shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := httpSrv.Shutdown(shutCtx)
			cancel()
			if ctrl != nil {
				ctrl.Close()
			}
			if closeErr := srv.Close(); err == nil {
				err = closeErr
			}
			m := srv.Metrics().Snapshot()
			fmt.Printf("drained: %d requests served (p50=%.3gms p99=%.3gms), %d matched / %d fallback, %d swaps\n",
				m.Requests, m.P50Seconds*1e3, m.P99Seconds*1e3, m.Matched, m.Fallbacks, m.Swaps)
			if mon != nil {
				mon.Flush()
				sum := mon.Summary()
				fmt.Printf("drift monitor: %d samples folded (%d teed, %d dropped), %d evals, score=%.3f, crossings=%d\n",
					sum.Samples, sum.Teed, sum.Dropped, sum.Evals, sum.Score, sum.Crossings)
				mon.Close()
			}
			logger.Info("drained", "requests", m.Requests,
				"matched", m.Matched, "fallbacks", m.Fallbacks, "swaps", m.Swaps,
				"spans", tracer.SpanCount())
			if *metricsOut != "" {
				if werr := writeMetrics(*metricsOut, m); werr != nil && err == nil {
					err = werr
				}
			}
			return err
		}
	}
}

// registerWithGateway announces this replica to a shiftex-gateway,
// retrying briefly so "start everything at once" deployments converge.
func registerWithGateway(gatewayURL, model, addr string) {
	body, _ := json.Marshal(map[string]string{"model": model, "addr": addr})
	client := &http.Client{Timeout: 2 * time.Second}
	for attempt := 0; attempt < 10; attempt++ {
		res, err := client.Post(strings.TrimRight(gatewayURL, "/")+"/v1/replicas",
			"application/json", bytes.NewReader(body))
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK || res.StatusCode == http.StatusAccepted {
				fmt.Printf("registered with gateway %s as model %q replica %s\n", gatewayURL, model, addr)
				return
			}
		}
		time.Sleep(500 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "shiftex-serve: could not register with gateway %s (gave up after 10 attempts)\n", gatewayURL)
}

// writeMetrics records the final serving counters as indented JSON.
func writeMetrics(path string, m serve.MetricsSnapshot) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
