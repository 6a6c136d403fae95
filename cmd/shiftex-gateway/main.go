// Command shiftex-gateway is the front tier of the ShiftEx serving stack:
// it owns a registry of named models, each backed by a fleet of
// shiftex-serve replicas, and routes /v1 traffic to them with
// consistent-hash affinity, health-checked failover, and a config-selected
// middleware chain (auth, rate limit, admission control, logging).
//
//	shiftex-aggregator -load 8 -windows 3 -seed 42 -checkpoint ckpt.json
//	shiftex-serve -checkpoint ckpt.json -http 127.0.0.1:9001 &
//	shiftex-serve -checkpoint ckpt.json -http 127.0.0.1:9002 &
//	shiftex-gateway -http 127.0.0.1:8080 -backends 127.0.0.1:9001,127.0.0.1:9002
//	curl -s -X POST -d '{"x":[0.1, ...]}' http://127.0.0.1:8080/v1/predict
//
// Multi-model deployments and middleware chains are described in a JSON
// config (-config); middlewares are selected BY NAME per route group from
// the registered set, and an unknown name fails startup with the live
// listing — the same convention the adaptation-policy registry uses.
//
// Every flag configures the daemon. Driving load through a running gateway
// (optionally SIGKILLing a replica mid-load) and checking the resulting
// BENCH_gateway.json are cmd/shiftex-bench's job (gateway-load, check).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shiftex-gateway:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shiftex-gateway", flag.ContinueOnError)
	configPath := fs.String("config", "", "gateway JSON config (models, middleware chains, auth tokens, limits)")
	httpAddr := fs.String("http", "", "bind address (overrides config listen; default 127.0.0.1:8080)")
	backends := fs.String("backends", "", "comma-separated serve replica addresses for the default model (config-free single-model mode)")
	verbose := fs.Bool("v", false, "log each request and replica eviction/re-admission")
	debugAddr := fs.String("debug-addr", "", "serve /v1/debug/pprof/ and /v1/debug/traces on this extra address (empty = off)")
	traceBuffer := fs.Int("trace-buffer", telemetry.DefaultRingSize, "span ring-buffer capacity for /v1/debug/traces")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := gateway.Config{}
	if *configPath != "" {
		var err error
		cfg, err = gateway.LoadConfigFile(*configPath)
		if err != nil {
			return err
		}
	}
	if *backends != "" {
		if cfg.Models == nil {
			cfg.Models = map[string][]string{}
		}
		cfg.Models["default"] = append(cfg.Models["default"], strings.Split(*backends, ",")...)
	}
	if len(cfg.Models) == 0 {
		return errors.New("no replicas configured: pass -backends addr,addr or a -config with a models table\n  (replicas may also self-register via POST /v1/replicas once the gateway is up)")
	}
	addr := cfg.Listen
	if *httpAddr != "" {
		addr = *httpAddr
	}
	if addr == "" {
		addr = "127.0.0.1:8080"
	}
	logger := telemetry.NewLogger(os.Stderr, "gateway")
	var gwLogger *slog.Logger
	if *verbose {
		gwLogger = logger
	}
	g, err := gateway.New(cfg, gwLogger)
	if err != nil {
		return err
	}
	tracer := telemetry.NewTracer("gateway", *traceBuffer)
	g.SetTracer(tracer)
	if *debugAddr != "" {
		telemetry.ServeDebug(*debugAddr, tracer, func(err error) {
			logger.Error("debug listener failed", "error", err)
		})
	}
	g.Start()
	defer g.Close()

	httpSrv := &http.Server{Addr: addr, Handler: g.Handler()}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	st := g.State()
	fmt.Printf("gateway listening on http://%s: %d model(s), middlewares %v (available: %s)\n",
		addr, len(st.Models), st.Middlewares, strings.Join(gateway.AvailableMiddlewares(), ", "))
	logger.Info("listening", "addr", addr, "models", len(st.Models),
		"middlewares", fmt.Sprint(st.Middlewares), "debugAddr", *debugAddr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-httpErr:
		return fmt.Errorf("http: %w", err)
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(shutCtx)
		st := g.State()
		fmt.Printf("gateway drained: %d requests (%d errors, %d rejected), %d failovers, %d evictions, %d re-admissions, session cache %d/%d hits\n",
			st.Requests, st.Errors, st.Rejected, st.Failovers, st.Evictions, st.Readmissions,
			st.SessionHits, st.SessionHits+st.SessionMisses)
		logger.Info("drained", "requests", st.Requests, "errors", st.Errors,
			"rejected", st.Rejected, "failovers", st.Failovers,
			"spans", tracer.SpanCount())
		return err
	}
}
