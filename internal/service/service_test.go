package service

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/shiftex"
	"repro/internal/tensor"
)

// testScenario builds a quick 8-party, 3-window workload with pronounced
// shifts — small enough for unit tests, structured enough to trigger the
// detection → clustering → expert-assignment path.
func testScenario(t *testing.T, seed uint64) *dataset.Scenario {
	t.Helper()
	spec := ScenarioSpec(8, 40, 20, 3)
	cfg := dataset.DefaultShiftConfig()
	cfg.RegimesPerWindow = 1
	sc, err := dataset.BuildScenario(spec, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func testOptions(sc *dataset.Scenario, seed uint64) Options {
	cfg := shiftex.DefaultConfig()
	cfg.BootstrapRounds = 4
	cfg.RoundsPerWindow = 4
	cfg.ParticipantsPerRound = 5
	cfg.Train.Epochs = 1
	return Options{
		Shiftex:    cfg,
		Arch:       DefaultArch(sc.Spec, []int{24, 12}),
		NumClasses: sc.Spec.NumClasses,
		Windows:    sc.Spec.Windows,
		Seed:       seed,
	}
}

// startTCPFleet serves every party of the scenario on loopback TCP and
// returns the transport reaching them. Servers are torn down with the test.
func startTCPFleet(t *testing.T, sc *dataset.Scenario) *TCPTransport {
	t.Helper()
	addrs := make(map[int]string, sc.Spec.NumParties)
	for p := 0; p < sc.Spec.NumParties; p++ {
		windows, err := PartyWindows(sc, p)
		if err != nil {
			t.Fatal(err)
		}
		train, test, err := windows.PartyWindow(0)
		if err != nil {
			t.Fatal(err)
		}
		party := &fl.Party{ID: p, Train: train, Test: test}
		srv, err := fl.NewPartyServer("127.0.0.1:0", party, sc.Spec.NumClasses, tensor.NewRNG(uint64(p)+99))
		if err != nil {
			t.Fatal(err)
		}
		srv.SetWindowProvider(windows)
		t.Cleanup(func() { srv.Close() })
		addrs[p] = srv.Addr()
	}
	tr, err := NewTCPTransport(addrs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() }) // runs before the servers' cleanups: hang up first
	return tr
}

// runAll drives a fresh runtime over the whole stream.
func runAll(t *testing.T, tr Transport, opts Options) *Runtime {
	t.Helper()
	rt, err := NewRuntime(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < opts.Windows; w++ {
		if _, err := rt.RunWindow(w); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}
	return rt
}
