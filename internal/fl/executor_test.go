package fl

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/nn"
)

// wideArch is large enough that one model-sized buffer (≈ 180 kB) dwarfs
// everything else a call could allocate, so the byte bounds below can tell
// "returns its result" from "rebuilt a model".
func wideArch(in, classes int) []int { return []int{in, 256, 48, classes} }

// allocBytesPerRun is testing.AllocsPerRun for bytes — on one P, as there: a
// goroutine that changes P between two runs leaves its pooled scratch set in
// the old P's private slot, where the next run cannot find it, and rebuilds
// one.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm-up, like AllocsPerRun
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func testExecutor(t *testing.T, p *Party, numClasses int) *PartyExecutor {
	t.Helper()
	e, err := NewPartyExecutor(p, numClasses, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExecutorSteadyStateAllocs pins the executor's cost model: once a
// scratch set for the architecture is pooled, train allocates a fixed handful of
// objects and no bytes beyond the parameters it returns plus per-example
// index slices — and not even those when the caller recycles its updates;
// eval allocates nothing; stats allocates its result (one embedding per
// sample) and nothing model-sized. The init draws that the party RNG stream
// owes are skipped, not computed.
func TestExecutorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	spec := testSpec()
	p := buildParties(t, spec, 5)[0]
	a := wideArch(spec.InputDim, spec.NumClasses)
	global := initParams(t, a)
	modelBytes := float64(8 * nn.ParamCount(a))
	perExample := float64(64 * len(p.Train)) // input/label/index slices over the split
	e := testExecutor(t, p, spec.NumClasses)
	cfg := validCfg()
	cfg.ProxMu = 0.01 // the proximal reference must not be cloned either

	train := func() {
		if _, err := e.Train(a, global, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, train); n > 12 {
		t.Errorf("train allocates %.0f objects per call, want a fixed handful (<= 12)", n)
	}
	// 1.02: the allocator rounds the returned vector up to a size class.
	if b := allocBytesPerRun(10, train); b > 1.02*modelBytes+perExample+1024 {
		t.Errorf("train allocates %.0f B per call, want only the returned parameters (%.0f B) plus per-example slices", b, modelBytes)
	}

	recycling := func() {
		u, err := e.Train(a, global, cfg)
		if err != nil {
			t.Fatal(err)
		}
		RecycleParams(u.Params)
	}
	if b := allocBytesPerRun(10, recycling); b > perExample+1024 {
		t.Errorf("train allocates %.0f B per call when its updates are recycled, want nothing model-sized (model is %.0f B)", b, modelBytes)
	}

	eval := func() {
		if _, err := e.Eval(a, global); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, eval); n > 0 {
		t.Errorf("eval allocates %.0f objects per call, want 0", n)
	}

	stats := func() {
		if _, err := e.Stats(a, global, 99); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, stats); n > float64(2*len(p.Train)+64) {
		t.Errorf("stats allocates %.0f objects per call, want O(samples)", n)
	}
	if b := allocBytesPerRun(10, stats); b > modelBytes/2 {
		t.Errorf("stats allocates %.0f B per call, want nothing model-sized (model is %.0f B)", b, modelBytes)
	}
}

// TestExecutorMatchesLocalTrain: updates from the cached executor equal the
// allocating reference bit for bit — across seeds, with momentum and the
// proximal term on, and across architecture changes on one party, where
// the pooled scratch set is dropped, rebuilt and — for a repeated
// architecture — reused.
func TestExecutorMatchesLocalTrain(t *testing.T) {
	spec := testSpec()
	p := buildParties(t, spec, 6)[2]
	e := testExecutor(t, p, spec.NumClasses)
	archs := [][]int{
		arch(spec),
		{spec.InputDim, 16, spec.NumClasses},
		wideArch(spec.InputDim, spec.NumClasses),
	}
	cfg := validCfg()
	cfg.Epochs = 2
	cfg.WeightDecay = 1e-4
	// Two steps per architecture: the first finds a misfit in the pool, the
	// second reuses the set the first one returned.
	for step := 0; step < 12; step++ {
		a := archs[step/2%len(archs)]
		global := initParams(t, a)
		cfg.Seed = uint64(100 + step)
		cfg.ProxMu = 0.05 * float64(step%2)
		want, err := LocalTrain(p, a, global, cfg, DeriveRNG(cfg.Seed, p.ID))
		if err != nil {
			t.Fatal(err)
		}
		sent := global.Clone()
		got, err := e.Train(a, global, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d arch %v: executor update differs from LocalTrain", step, a)
		}
		if !reflect.DeepEqual(global, sent) {
			t.Fatalf("step %d: executor modified the caller's global vector", step)
		}
		// Eval and Stats share the scratch model with Train; they must
		// not see its trained weights.
		acc, err := e.Eval(a, global)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := evalAcc(t, a, global, p.Test)
		if err != nil {
			t.Fatal(err)
		}
		if acc != ref {
			t.Fatalf("step %d: executor eval %g, reference %g", step, acc, ref)
		}
	}
}

// TestExecutorConcurrentCalls overlaps train, eval and stats on one party
// (an abandoned timed-out call running beside its successor): results stay
// those of the serial run. Run under -race.
func TestExecutorConcurrentCalls(t *testing.T) {
	spec := testSpec()
	p := buildParties(t, spec, 8)[1]
	a := arch(spec)
	global := initParams(t, a)
	e := testExecutor(t, p, spec.NumClasses)
	want, err := e.Train(a, global, validCfg())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 12)
	for i := 0; i < 4; i++ {
		go func() {
			got, err := e.Train(a, global, validCfg())
			if err == nil && !reflect.DeepEqual(got, want) {
				err = errDiverged
			}
			done <- err
		}()
		go func() { _, err := e.Eval(a, global); done <- err }()
		go func() { _, err := e.Stats(a, global, 3); done <- err }()
	}
	for i := 0; i < 12; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

var errDiverged = errors.New("concurrent update differs from the serial one")
