package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/shiftex"
	"repro/internal/tensor"
)

// The world every workload runs in: an FMoW-shaped scenario of 8 parties and
// 4 windows, generated and trained from fixtureSeed. It is fixed so that the
// amount of adaptation work (experts created, rounds run) is identical for
// every --seed; a different scenario seed changes the round count by ±20 %,
// which would drown any timing comparison across seeds. The --seed flag
// drives what the trained system is then asked: the jitter of every request
// and evaluation input.
const (
	fixtureSeed     = 42
	parties         = 8
	windows         = 4
	samplesPerParty = 40
	testPerParty    = 20
	// jitterSigma perturbs each input feature; small against the unit-scale
	// features so routing mostly agrees with the un-jittered stream, large
	// enough that every input is distinct to the caches.
	jitterSigma = 0.01
)

var (
	bigArch   = []int{128, 64} // 32-128-64-10: kernels dominate a request
	smallArch = []int{16, 8}   // 32-16-8-10: everything around the kernels dominates
)

func buildScenario() (*dataset.Scenario, error) {
	spec := service.ScenarioSpec(parties, samplesPerParty, testPerParty, windows)
	return dataset.BuildScenario(spec, dataset.DefaultShiftConfig(), fixtureSeed)
}

// runtimeOptions is the aggregator daemon's recipe for the committed serving
// checkpoints (EXPERIMENTS.md): 6 rounds, 4 participants, default fan-out.
func runtimeOptions(sc *dataset.Scenario, hidden []int, policy string) service.Options {
	cfg := shiftex.DefaultConfig()
	cfg.RoundsPerWindow = 6
	cfg.BootstrapRounds = 6
	cfg.ParticipantsPerRound = 4
	return service.Options{
		Shiftex:    cfg,
		Policy:     policy,
		Arch:       service.DefaultArch(sc.Spec, hidden),
		NumClasses: sc.Spec.NumClasses,
		Windows:    sc.Spec.Windows,
		Seed:       fixtureSeed,
		Fanout:     service.FanoutConfig{Workers: 4, Timeout: time.Minute, Retries: 1, Quorum: 0.5},
	}
}

// jitteredTests is a party's window stream with its test split jittered from
// the run seed. Test examples feed only Eval (the accuracy trace), never a
// detection or assignment decision, so the adaptation trajectory — and with
// it the work per window — is the same for every seed.
type jitteredTests struct {
	fl.WindowProvider
	party int
	seed  uint64
}

func (j jitteredTests) PartyWindow(w int) (train, test []dataset.Example, err error) {
	train, test, err = j.WindowProvider.PartyWindow(w)
	if err != nil {
		return nil, nil, err
	}
	rng := tensor.NewRNG(j.seed ^ uint64(j.party+1)<<20 ^ uint64(w+1)<<40)
	out := make([]dataset.Example, len(test))
	for i, ex := range test {
		out[i] = dataset.Example{X: jitter(ex.X, rng), Y: ex.Y}
	}
	return train, out, nil
}

func jitter(x tensor.Vector, rng *tensor.RNG) tensor.Vector {
	out := x.Clone()
	for k := range out {
		out[k] += jitterSigma * rng.Norm()
	}
	return out
}

func partyWindows(sc *dataset.Scenario, p int, seed uint64) (fl.WindowProvider, error) {
	w, err := service.PartyWindows(sc, p)
	if err != nil {
		return nil, err
	}
	return jitteredTests{WindowProvider: w, party: p, seed: seed}, nil
}

func localFleet(sc *dataset.Scenario, seed uint64) (*service.LocalTransport, error) {
	t := service.NewLocalTransport()
	for p := 0; p < sc.Spec.NumParties; p++ {
		w, err := partyWindows(sc, p, seed)
		if err != nil {
			return nil, err
		}
		if err := t.AddParty(p, sc.Spec.NumClasses, w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// tcpFleet serves every party of the scenario from an in-process
// fl.PartyServer on loopback and returns the transport that reaches them.
// Party servers keep detector and stream state, so every scenario pass gets a
// fresh fleet. stop closes the servers and waits for their handlers.
func tcpFleet(sc *dataset.Scenario, seed uint64) (tr *service.TCPTransport, stop func(), err error) {
	var servers []*fl.PartyServer
	stop = func() {
		for _, s := range servers {
			_ = s.Close() // listener teardown at the end of a pass
		}
	}
	addrs := make(map[int]string, sc.Spec.NumParties)
	for p := 0; p < sc.Spec.NumParties; p++ {
		w, err := partyWindows(sc, p, seed)
		if err != nil {
			stop()
			return nil, nil, err
		}
		train, test, err := w.PartyWindow(0)
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv, err := fl.NewPartyServer("127.0.0.1:0", &fl.Party{ID: p, Train: train, Test: test},
			sc.Spec.NumClasses, tensor.NewRNG(fixtureSeed+uint64(p)))
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv.SetWindowProvider(w)
		servers = append(servers, srv)
		addrs[p] = srv.Addr()
	}
	tr, err = service.NewTCPTransport(addrs, 0, 0)
	if err != nil {
		stop()
		return nil, nil, err
	}
	if err := tr.Ping(0); err != nil {
		stop()
		return nil, nil, err
	}
	return tr, stop, nil
}

// trainCheckpoint runs the whole scenario over an in-process fleet with the
// runtime checkpointing after every window, and keeps each window's file so a
// workload can serve any stream position. paths[w] is the checkpoint taken
// after window w.
func trainCheckpoint(hidden []int, dir string) (paths []string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sc, err := buildScenario()
	if err != nil {
		return nil, err
	}
	fleet, err := localFleet(sc, fixtureSeed)
	if err != nil {
		return nil, err
	}
	opts := runtimeOptions(sc, hidden, "")
	opts.CheckpointPath = filepath.Join(dir, "latest.json")
	rt, err := service.NewRuntime(fleet, opts)
	if err != nil {
		return nil, err
	}
	for w := 0; w < opts.Windows; w++ {
		if _, err := rt.RunWindow(w); err != nil {
			return nil, err
		}
		kept := filepath.Join(dir, fmt.Sprintf("window%d.json", w))
		if err := os.Rename(opts.CheckpointPath, kept); err != nil {
			return nil, err
		}
		paths = append(paths, kept)
	}
	return paths, nil
}

// request is one input of a serving stream with its label.
type request struct {
	x tensor.Vector
	y int
}

// requestStream jitters the adapted window's test stream (interleaved across
// parties, as serve.Workload builds it) into n distinct inputs from the seed.
func requestStream(cp *service.Checkpoint, n int, seed uint64) ([]request, error) {
	items, err := serve.Workload(cp, serve.LoadConfig{SamplesPerParty: samplesPerParty, TestPerParty: testPerParty})
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed ^ 0x5bd1e995)
	out := make([]request, n)
	for i := range out {
		it := items[i%len(items)]
		out[i] = request{x: jitter(it.X, rng), y: it.Y}
	}
	return out, nil
}

// expected is the oracle's answer for one input under one snapshot.
type expected struct {
	class, expert int
}

// oracle computes, for every input, what the snapshot must answer: the route
// Snapshot.Route picks and that expert's per-sample PredictWS — the direct,
// unbatched, uncached path. snap must already be adopted by a server (Route
// uses the radius the server stamped).
func oracle(snap *serve.Snapshot, reqs []request) ([]expected, error) {
	ws := snap.NewWorkspace()
	out := make([]expected, len(reqs))
	for i, r := range reqs {
		idx, _, err := snap.Route(ws, r.x)
		if err != nil {
			return nil, err
		}
		e := snap.Experts()[idx]
		class, err := e.Model.PredictWS(ws, r.x)
		if err != nil {
			return nil, err
		}
		out[i] = expected{class: class, expert: e.ID}
	}
	return out, nil
}
