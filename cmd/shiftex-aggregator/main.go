// Command shiftex-aggregator is the ShiftEx service daemon: it drives the
// full shift-aware mixture-of-experts algorithm (detection → latent-memory
// lookup → expert spawn/consolidation) over parties reached through TCP —
// the deployable, cross-process counterpart of the in-process experiments,
// making the same decisions for the same seed.
//
// Start scenario-mode parties first, then point the aggregator at them:
//
//	shiftex-party -addr 127.0.0.1:7001 -party 0 -nparties 2 -windows 3 -scenario-seed 42 &
//	shiftex-party -addr 127.0.0.1:7002 -party 1 -nparties 2 -windows 3 -scenario-seed 42 &
//	shiftex-aggregator -parties 127.0.0.1:7001,127.0.0.1:7002 -windows 3 -seed 42 \
//	    -http 127.0.0.1:8080 -checkpoint shiftex.ckpt.json -quorum 0.5
//
// The i-th -parties address must serve party ID i.
//
// Alternatively, -load N spins N in-process parties (still over loopback
// TCP) to exercise the daemon at scale without managing processes:
//
//	shiftex-aggregator -load 16 -windows 4 -seed 7
//
// A killed daemon restarted with -resume continues from its last completed
// window and converges to the same final state as an uninterrupted run;
// party processes keep their stream position and detector state on their
// own. -http serves /healthz, /state, and Prometheus /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/service"
	"repro/internal/shiftex"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shiftex-aggregator:", err)
		os.Exit(1)
	}
}

// parseArch parses the -arch hidden-width list ("32,16").
func parseArch(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	hidden := make([]int, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -arch %q: widths must be positive integers (e.g. -arch 32,16)", s)
		}
		hidden = append(hidden, w)
	}
	return hidden, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("shiftex-aggregator", flag.ContinueOnError)
	partyList := fs.String("parties", "", "comma-separated party addresses (i-th address serves party i)")
	load := fs.Int("load", 0, "load-generator mode: spin N in-process parties over loopback TCP instead of -parties")
	var windows int
	fs.IntVar(&windows, "windows", 3, "stream windows including the W0 bootstrap")
	fs.IntVar(&windows, "window", 3, "alias for -windows")
	rounds := fs.Int("rounds", 6, "federated rounds per adaptive window")
	bootstrap := fs.Int("bootstrap", 0, "bootstrap rounds in window 0 (0 = same as -rounds)")
	participants := fs.Int("participants", 10, "per-expert cohort sample size per round")
	epochs := fs.Int("epochs", 2, "local epochs per round")
	lr := fs.Float64("lr", 0.02, "local learning rate")
	seed := fs.Uint64("seed", 1, "run seed: roots the aggregator RNG, every per-party stream, and (with -load) the scenario")
	archFlag := fs.String("arch", "32,16", "hidden layer widths, comma-separated")
	samples := fs.Int("samples", 120, "scenario training samples per party per window (must match the parties'; with -load -resume, must match the original run — the checkpoint pins seed and windows but not data shape)")
	testN := fs.Int("test", 60, "scenario test samples per party per window (same consistency rule as -samples)")
	quorum := fs.Float64("quorum", 0.5, "fraction of selected parties that must report for a round to complete, in (0,1] (1 = all; use a small fraction to tolerate most dropouts)")
	timeout := fs.Duration("timeout", time.Minute, "per-party call timeout (0 = transport default)")
	retries := fs.Int("retries", 1, "extra attempts per failed party call")
	workers := fs.Int("workers", 4, "concurrent party calls per fan-out")
	checkpoint := fs.String("checkpoint", "", "checkpoint file written after every completed window")
	resume := fs.Bool("resume", false, "resume from -checkpoint instead of starting at window 0")
	policyName := fs.String("policy", "", "adaptation policy the aggregator runs (empty = default); on -resume the checkpoint's policy is pinned and a conflicting flag is an error")
	httpAddr := fs.String("http", "", "serve /healthz, /state, /metrics on this address (empty = off)")
	debugAddr := fs.String("debug-addr", "", "serve /v1/debug/pprof/ and /v1/debug/traces on this extra address (empty = off)")
	traceBuffer := fs.Int("trace-buffer", telemetry.DefaultRingSize, "span ring-buffer capacity for /v1/debug/traces")
	if err := fs.Parse(args); err != nil {
		return err
	}

	hidden, err := parseArch(*archFlag)
	if err != nil {
		return err
	}
	if *resume && *checkpoint == "" {
		return errors.New("-resume requires -checkpoint PATH")
	}
	// Resolve the policy up front so a typo fails with the live registry
	// listing before any party is contacted.
	if _, err := adapt.NewPolicy(*policyName); err != nil {
		return err
	}
	if *quorum <= 0 || *quorum > 1 {
		return fmt.Errorf("-quorum must be in (0,1], got %g (1 = all parties; a round always needs at least one update, so there is no 'no quorum' setting)", *quorum)
	}
	if (*partyList == "") == (*load == 0) {
		return errors.New("exactly one of -parties or -load is required\n  usage: -parties host:port,host:port  |  -load N")
	}

	// On resume the checkpoint pins the run's protocol. Peek it up front
	// so everything built before service.Resume — the -load scenario, the
	// usage hints — derives from the checkpointed seed and stream length
	// rather than flag defaults that may not match the original run. An
	// explicit -windows/-window flag still extends a finished stream.
	windowsSet := false
	fs.Visit(func(fg *flag.Flag) {
		if fg.Name == "windows" || fg.Name == "window" {
			windowsSet = true
		}
	})
	var cp *service.Checkpoint
	if *resume {
		cp, err = service.LoadCheckpoint(*checkpoint)
		if err != nil {
			return err
		}
		*seed = cp.Seed
		if !windowsSet {
			windows = cp.NumWindows
		}
	}

	logger := telemetry.NewLogger(os.Stderr, "aggregator")
	tracer := telemetry.NewTracer("aggregator", *traceBuffer)
	if *debugAddr != "" {
		telemetry.ServeDebug(*debugAddr, tracer, func(err error) {
			logger.Error("debug listener failed", "error", err)
		})
	}

	// Assemble the party fleet.
	var transport service.Transport
	var nparties int
	if *load > 0 {
		nparties = *load
		tr, closeFn, err := loadFleet(*load, windows, *samples, *testN, *seed, tracer)
		if err != nil {
			return err
		}
		defer closeFn()
		tr.SetTracer(tracer)
		transport = tr
	} else {
		addrs := strings.Split(*partyList, ",")
		nparties = len(addrs)
		m := make(map[int]string, len(addrs))
		for i, a := range addrs {
			m[i] = strings.TrimSpace(a)
		}
		tr, err := service.NewTCPTransport(m, 5*time.Second, *timeout)
		if err != nil {
			return err
		}
		// Fail fast with an actionable message before any training.
		if err := tr.Ping(5 * time.Second); err != nil {
			return fmt.Errorf("%w\n  start it with: shiftex-party -addr HOST:PORT -party ID -nparties %d -windows %d -scenario-seed %d",
				err, nparties, windows, *seed)
		}
		tr.SetTracer(tracer)
		transport = tr
	}
	// Pooled party connections outlive calls; hang up before the in-process
	// parties (if any) are torn down.
	defer transport.Close()

	spec := service.ScenarioSpec(nparties, *samples, *testN, windows)
	cfg := shiftex.DefaultConfig()
	cfg.RoundsPerWindow = *rounds
	cfg.BootstrapRounds = *bootstrap
	if cfg.BootstrapRounds <= 0 {
		cfg.BootstrapRounds = *rounds
	}
	cfg.ParticipantsPerRound = *participants
	cfg.Train.Epochs = *epochs
	cfg.Train.LR = *lr

	opts := service.Options{
		Shiftex:    cfg,
		Policy:     *policyName,
		Arch:       service.DefaultArch(spec, hidden),
		NumClasses: spec.NumClasses,
		Windows:    windows,
		Seed:       *seed,
		Fanout: service.FanoutConfig{
			Workers: *workers,
			Timeout: *timeout,
			Retries: *retries,
			Quorum:  *quorum,
		},
		CheckpointPath: *checkpoint,
		Tracer:         tracer,
	}

	var rt *service.Runtime
	if *resume {
		rt, err = service.ResumeFrom(transport, cp, opts)
		if err != nil {
			return err
		}
		fmt.Printf("resumed from %s at window %d/%d (policy %s)\n", *checkpoint, rt.NextWindow(), rt.Windows(), rt.Aggregator().PolicyName())
	} else {
		rt, err = service.NewRuntime(transport, opts)
		if err != nil {
			return err
		}
		fmt.Printf("adaptation policy: %s\n", rt.Aggregator().PolicyName())
	}

	if *httpAddr != "" {
		srv := &http.Server{Addr: *httpAddr, Handler: rt.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "shiftex-aggregator: http:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("observability on http://%s (/v1/healthz /v1/state /v1/metrics; unversioned aliases deprecated)\n", *httpAddr)
	}
	logger.Info("listening", "addr", *httpAddr, "parties", nparties,
		"windows", windows, "policy", rt.Aggregator().PolicyName(),
		"nextWindow", rt.NextWindow(), "debugAddr", *debugAddr)

	// SIGTERM (the signal process managers send) drains like SIGINT: the
	// current window completes and checkpoints before the loop observes
	// cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for w := rt.NextWindow(); w < rt.Windows(); w++ {
		select {
		case <-ctx.Done():
			if *checkpoint != "" {
				fmt.Println("interrupted; state is checkpointed through the last completed window")
			} else {
				fmt.Println("interrupted; no -checkpoint was set, progress is lost")
			}
			mi := rt.Metrics().Snapshot()
			logger.Info("drained", "windowsDone", mi.WindowsDone,
				"rounds", mi.RoundsTotal, "partyFailures", mi.PartyFailures,
				"spans", tracer.SpanCount())
			return nil
		default:
		}
		rep, err := rt.RunWindow(w)
		if err != nil {
			return err
		}
		fmt.Printf("window %d done: acc=%.3f shifted(cov=%d label=%d) experts=%d (new=%d merged=%d)\n",
			w, last(rep.Trace), rep.ShiftedCov, rep.ShiftedLabel,
			rep.ExpertsAfter, rep.NewExperts, rep.Merged)
	}

	m := rt.Metrics().Snapshot()
	fmt.Printf("run complete: %d windows, %d rounds (mean %.2fs), %d experts, %d party failures tolerated\n",
		m.WindowsDone, m.RoundsTotal, m.RoundLatencyMeanS, rt.Aggregator().Registry().Len(), m.PartyFailures)
	logger.Info("drained", "windowsDone", m.WindowsDone, "rounds", m.RoundsTotal,
		"partyFailures", m.PartyFailures, "spans", tracer.SpanCount())
	return nil
}

func last(trace []float64) float64 {
	if len(trace) == 0 {
		return 0
	}
	return trace[len(trace)-1]
}

// loadFleet starts n in-process scenario parties on loopback TCP — the
// load-generator mode that exercises the full wire path in one process.
func loadFleet(n, windows, samples, testN int, seed uint64, tracer *telemetry.Tracer) (*service.TCPTransport, func(), error) {
	spec := service.ScenarioSpec(n, samples, testN, windows)
	sc, err := dataset.BuildScenario(spec, dataset.DefaultShiftConfig(), seed)
	if err != nil {
		return nil, nil, err
	}
	var servers []*fl.PartyServer
	closeAll := func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}
	addrs := make(map[int]string, n)
	for p := 0; p < n; p++ {
		provider, err := service.PartyWindows(sc, p)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		train, test, err := provider.PartyWindow(0)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		srv, err := fl.NewPartyServer("127.0.0.1:0", &fl.Party{ID: p, Train: train, Test: test}, spec.NumClasses, tensor.NewRNG(seed+uint64(p)))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		srv.SetWindowProvider(provider)
		// In-process parties share the daemon's ring: their party.<kind>
		// spans land next to the fl.<kind> client spans they answer.
		srv.SetTracer(tracer)
		servers = append(servers, srv)
		addrs[p] = srv.Addr()
	}
	tr, err := service.NewTCPTransport(addrs, 0, 0)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	fmt.Printf("load mode: %d in-process parties on loopback TCP\n", n)
	return tr, closeAll, nil
}
