// Command shiftex-party runs one federated party as a TCP server: it
// generates a private local dataset, streams it through windows, and serves
// training, evaluation, label-histogram, window-advance, and Algorithm-1
// shift-statistics requests from the aggregator. Raw data never leaves the
// process.
//
// Two data modes:
//
//   - Legacy single-regime mode (default): one window drawn from a fixed
//     corruption regime.
//
//     shiftex-party -addr 127.0.0.1:7001 -party 0 -corruption fog -severity 3
//
//   - Scenario mode (-windows > 1): the party regenerates the shared
//     multi-window shift scenario from (-nparties, -windows, -scenario-seed)
//     and serves its own slice of it, advancing window by window on request.
//     Every participant that derives the scenario from the same flags agrees
//     on the data without any of it crossing the wire.
//
//     shiftex-party -addr 127.0.0.1:7001 -party 0 -nparties 2 -windows 3 -scenario-seed 42
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shiftex-party:", err)
		os.Exit(1)
	}
}

func parseCorruption(name string, severity int) (dataset.Corruption, error) {
	if name == "" || name == "none" {
		return dataset.Corruption{}, nil
	}
	kinds := map[string]dataset.CorruptionKind{
		"fog": dataset.CorruptFog, "rain": dataset.CorruptRain,
		"snow": dataset.CorruptSnow, "frost": dataset.CorruptFrost,
		"blur": dataset.CorruptBlur, "noise": dataset.CorruptNoise,
		"rotate": dataset.CorruptRotate, "scale": dataset.CorruptScale,
		"jitter": dataset.CorruptJitter,
	}
	k, ok := kinds[name]
	if !ok {
		return dataset.Corruption{}, fmt.Errorf("unknown corruption %q", name)
	}
	return dataset.Corruption{Kind: k, Severity: severity}, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("shiftex-party", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	partyID := fs.Int("party", 0, "party id (0-based)")
	corrName := fs.String("corruption", "none", "legacy mode: covariate regime (fog, rain, snow, frost, blur, noise, rotate, scale, jitter)")
	severity := fs.Int("severity", 3, "legacy mode: corruption severity 1-5")
	samples := fs.Int("samples", 120, "training samples per window")
	testN := fs.Int("test", 60, "test samples per window")
	seed := fs.Uint64("seed", 0, "legacy mode: data seed (0 = derive from party id)")
	windows := fs.Int("windows", 1, "scenario mode: number of stream windows (>1 enables scenario mode)")
	nparties := fs.Int("nparties", 0, "scenario mode: total parties in the shared scenario")
	scenarioSeed := fs.Uint64("scenario-seed", 1, "scenario mode: shared scenario seed")
	debugAddr := fs.String("debug-addr", "", "serve /v1/debug/pprof/ and /v1/debug/traces on this extra address (empty = off)")
	traceBuffer := fs.Int("trace-buffer", telemetry.DefaultRingSize, "span ring-buffer capacity for /v1/debug/traces")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var srv *fl.PartyServer
	var err error
	if *windows > 1 {
		srv, err = scenarioServer(*addr, *partyID, *nparties, *windows, *samples, *testN, *scenarioSeed)
	} else {
		srv, err = legacyServer(*addr, *partyID, *corrName, *severity, *samples, *testN, *seed)
	}
	if err != nil {
		return err
	}
	logger := telemetry.NewLogger(os.Stderr, "party")
	tracer := telemetry.NewTracer("party", *traceBuffer)
	srv.SetTracer(tracer)
	if *debugAddr != "" {
		telemetry.ServeDebug(*debugAddr, tracer, func(err error) {
			logger.Error("debug listener failed", "error", err)
		})
	}
	logger.Info("listening", "addr", srv.Addr(), "party", *partyID,
		"windows", *windows, "debugAddr", *debugAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	err = srv.Close()
	logger.Info("drained", "requests", srv.Requests(), "connections", srv.Connections(), "spans", tracer.SpanCount())
	return err
}

// scenarioServer serves one party's slice of the shared multi-window shift
// scenario.
func scenarioServer(addr string, partyID, nparties, windows, samples, testN int, seed uint64) (*fl.PartyServer, error) {
	if nparties <= 0 {
		return nil, fmt.Errorf("scenario mode needs -nparties (total parties, > %d)", partyID)
	}
	if partyID < 0 || partyID >= nparties {
		return nil, fmt.Errorf("party %d out of range [0,%d)", partyID, nparties)
	}
	spec := service.ScenarioSpec(nparties, samples, testN, windows)
	sc, err := dataset.BuildScenario(spec, dataset.DefaultShiftConfig(), seed)
	if err != nil {
		return nil, err
	}
	provider, err := service.PartyWindows(sc, partyID)
	if err != nil {
		return nil, err
	}
	train, test, err := provider.PartyWindow(0)
	if err != nil {
		return nil, err
	}
	party := &fl.Party{ID: partyID, Train: train, Test: test}
	srv, err := fl.NewPartyServer(addr, party, spec.NumClasses, tensor.NewRNG(seed+uint64(partyID)))
	if err != nil {
		return nil, err
	}
	srv.SetWindowProvider(provider)
	fmt.Printf("party %d/%d serving on %s (scenario seed %d, %d windows, %d train / %d test per window)\n",
		partyID, nparties, srv.Addr(), seed, windows, len(train), len(test))
	return srv, nil
}

// legacyServer is the original fixed-regime single-window party.
func legacyServer(addr string, partyID int, corrName string, severity, samples, testN int, seed uint64) (*fl.PartyServer, error) {
	if seed == 0 {
		seed = uint64(partyID) + 1000
	}
	corr, err := parseCorruption(corrName, severity)
	if err != nil {
		return nil, err
	}

	// Generate the private local stream: a tumbling window over examples
	// drawn from this party's regime.
	spec := dataset.FMoWSpec()
	gen, err := dataset.NewGenerator(spec, 1) // shared world model across parties
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	labelDist := rng.Dirichlet(spec.NumClasses, 5)
	raw, err := gen.SampleSet(samples, labelDist, corr, rng)
	if err != nil {
		return nil, err
	}
	windower, err := stream.NewTumbling(time.Minute)
	if err != nil {
		return nil, err
	}
	windows, err := stream.Replay([][]dataset.Example{raw}, time.Minute, windower)
	if err != nil {
		return nil, err
	}
	test, err := gen.SampleSet(testN, labelDist, corr, rng)
	if err != nil {
		return nil, err
	}
	party := &fl.Party{ID: partyID, Train: windows[0].Examples(), Test: test}

	srv, err := fl.NewPartyServer(addr, party, spec.NumClasses, rng.Split())
	if err != nil {
		return nil, err
	}
	fmt.Printf("party %d serving on %s (regime %s, %d train / %d test)\n",
		partyID, srv.Addr(), corr, len(party.Train), len(party.Test))
	return srv, nil
}
