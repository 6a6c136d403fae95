package fl

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func testSpec() dataset.Spec {
	s := dataset.FMoWSpec().Scale(0.2) // 10 parties
	return s
}

func buildParties(t testing.TB, spec dataset.Spec, seed uint64) []*Party {
	t.Helper()
	sc, err := dataset.BuildScenario(spec, dataset.DefaultShiftConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	parties := make([]*Party, spec.NumParties)
	for p := 0; p < spec.NumParties; p++ {
		parties[p] = &Party{
			ID:    p,
			Train: sc.Windows[0][p].Train,
			Test:  sc.Windows[0][p].Test,
		}
	}
	return parties
}

func arch(spec dataset.Spec) []int {
	return []int{spec.InputDim, 24, 12, spec.NumClasses}
}

func initParams(t testing.TB, a []int) tensor.Vector {
	t.Helper()
	m, err := nn.NewMLP(a, tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	return m.Params()
}

func validCfg() TrainConfig {
	return TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1}
}

func TestTrainConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*TrainConfig)
		wantErr bool
	}{
		{name: "valid", mutate: func(c *TrainConfig) {}},
		{name: "zero epochs", mutate: func(c *TrainConfig) { c.Epochs = 0 }, wantErr: true},
		{name: "zero lr", mutate: func(c *TrainConfig) { c.LR = 0 }, wantErr: true},
		{name: "momentum 1", mutate: func(c *TrainConfig) { c.Momentum = 1 }, wantErr: true},
		{name: "negative decay", mutate: func(c *TrainConfig) { c.WeightDecay = -1 }, wantErr: true},
		{name: "negative prox", mutate: func(c *TrainConfig) { c.ProxMu = -1 }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := validCfg()
			tt.mutate(&c)
			if err := c.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestLocalTrainImproves(t *testing.T) {
	spec := testSpec()
	parties := buildParties(t, spec, 1)
	a := arch(spec)
	global := initParams(t, a)
	p := parties[0]

	before, err := evalAcc(t, a, global, p.Train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := validCfg()
	cfg.Epochs = 5
	u, err := LocalTrain(p, a, global, cfg, tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	after, err := evalAcc(t, a, u.Params, p.Train)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("local training should improve train accuracy: %g -> %g", before, after)
	}
	if u.NumSamples != len(p.Train) || u.PartyID != p.ID {
		t.Fatalf("update metadata: %+v", u)
	}
}

func TestLocalTrainErrors(t *testing.T) {
	spec := testSpec()
	parties := buildParties(t, spec, 1)
	a := arch(spec)
	global := initParams(t, a)
	empty := &Party{ID: 99}
	if _, err := LocalTrain(empty, a, global, validCfg(), tensor.NewRNG(1)); err == nil {
		t.Fatal("empty party should error")
	}
	bad := validCfg()
	bad.LR = 0
	if _, err := LocalTrain(parties[0], a, global, bad, tensor.NewRNG(1)); err == nil {
		t.Fatal("invalid config should error")
	}
	if _, err := LocalTrain(parties[0], a, tensor.Vector{1, 2}, validCfg(), tensor.NewRNG(1)); err == nil {
		t.Fatal("wrong param size should error")
	}
}

func TestFedAvgWeighting(t *testing.T) {
	updates := []Update{
		{PartyID: 0, Params: tensor.Vector{1, 1}, NumSamples: 3},
		{PartyID: 1, Params: tensor.Vector{5, 5}, NumSamples: 1},
	}
	agg, err := FedAvg(updates)
	if err != nil {
		t.Fatal(err)
	}
	if agg[0] != 2 { // (3*1 + 1*5)/4
		t.Fatalf("agg = %v", agg)
	}
	if _, err := FedAvg(nil); err == nil {
		t.Fatal("empty updates should error")
	}
	if _, err := FedAvg([]Update{{Params: tensor.Vector{1}, NumSamples: 0}}); err == nil {
		t.Fatal("zero samples should error")
	}
}

func TestFedAvgConvexHull(t *testing.T) {
	// Aggregate must lie within the coordinate-wise min/max of inputs.
	rng := tensor.NewRNG(3)
	updates := make([]Update, 5)
	for i := range updates {
		updates[i] = Update{PartyID: i, Params: rng.NormVec(10, 0, 2), NumSamples: 1 + rng.Intn(10)}
	}
	agg, err := FedAvg(updates)
	if err != nil {
		t.Fatal(err)
	}
	for j := range agg {
		lo, hi := updates[0].Params[j], updates[0].Params[j]
		for _, u := range updates {
			if u.Params[j] < lo {
				lo = u.Params[j]
			}
			if u.Params[j] > hi {
				hi = u.Params[j]
			}
		}
		if agg[j] < lo-1e-12 || agg[j] > hi+1e-12 {
			t.Fatalf("agg[%d]=%g outside hull [%g,%g]", j, agg[j], lo, hi)
		}
	}
}

func TestEngineRoundConverges(t *testing.T) {
	spec := testSpec()
	parties := buildParties(t, spec, 2)
	a := arch(spec)
	runner := NewLocalRunner(parties, tensor.NewRNG(5))
	eng := &Engine{Arch: a, Trainer: runner, Workers: 2}

	global := initParams(t, a)
	selected := make([]int, len(parties))
	for i := range selected {
		selected[i] = i
	}
	var test []dataset.Example
	for _, p := range parties {
		test = append(test, p.Test...)
	}
	before, err := evalAcc(t, a, global, test)
	if err != nil {
		t.Fatal(err)
	}
	cfg := validCfg()
	cfg.Epochs = 3
	cfg.LR = 0.02
	for round := 0; round < 20; round++ {
		cfg.Seed = uint64(round)
		next, updates, err := eng.Round(global, selected, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(updates) != len(selected) {
			t.Fatalf("round %d: %d updates", round, len(updates))
		}
		global = next
	}
	after, err := evalAcc(t, a, global, test)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before+0.1 {
		t.Fatalf("federated training did not converge: %g -> %g", before, after)
	}
}

func TestEngineRoundPartialFailure(t *testing.T) {
	spec := testSpec()
	parties := buildParties(t, spec, 3)
	parties[2].Train = nil // this party will fail
	a := arch(spec)
	runner := NewLocalRunner(parties, tensor.NewRNG(5))
	eng := &Engine{Arch: a, Trainer: runner}
	global := initParams(t, a)

	next, updates, err := eng.Round(global, []int{0, 1, 2}, validCfg())
	if err != nil {
		t.Fatalf("partial failure should not abort the round: %v", err)
	}
	if len(updates) != 2 {
		t.Fatalf("updates = %d, want 2", len(updates))
	}
	if len(next) != len(global) {
		t.Fatal("aggregate has wrong shape")
	}
}

func TestEngineRoundAllFail(t *testing.T) {
	spec := testSpec()
	a := arch(spec)
	runner := NewLocalRunner(nil, tensor.NewRNG(1))
	eng := &Engine{Arch: a, Trainer: runner}
	_, _, err := eng.Round(initParams(t, a), []int{0, 1}, validCfg())
	if err == nil {
		t.Fatal("all-fail round should error")
	}
	if !strings.Contains(err.Error(), "all parties failed") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, _, err := eng.Round(initParams(t, a), nil, validCfg()); err == nil {
		t.Fatal("empty selection should error")
	}
}

func TestLocalRunnerSetPartyData(t *testing.T) {
	spec := testSpec()
	parties := buildParties(t, spec, 4)
	runner := NewLocalRunner(parties, tensor.NewRNG(1))
	newData := parties[1].Train
	if err := runner.SetPartyData(0, newData, nil); err != nil {
		t.Fatal(err)
	}
	p, ok := runner.Party(0)
	if !ok {
		t.Fatal("party 0 missing")
	}
	if len(p.Train) != len(newData) {
		t.Fatal("data not replaced")
	}
	if err := runner.SetPartyData(999, nil, nil); err == nil {
		t.Fatal("unknown party should error")
	}
	if _, ok := runner.Party(999); ok {
		t.Fatal("unknown party lookup should fail")
	}
}

// evalAcc measures params on a test set through a one-shot Evaluator.
func evalAcc(t *testing.T, a []int, params tensor.Vector, test []dataset.Example) (float64, error) {
	t.Helper()
	e, err := NewEvaluator(a)
	if err != nil {
		t.Fatal(err)
	}
	return e.Accuracy(params, test)
}

func TestEvaluateErrors(t *testing.T) {
	spec := testSpec()
	a := arch(spec)
	if _, err := evalAcc(t, a, initParams(t, a), nil); err == nil {
		t.Fatal("empty test set should error")
	}
	if _, err := evalAcc(t, a, tensor.Vector{1}, []dataset.Example{{X: tensor.NewVector(spec.InputDim)}}); err == nil {
		t.Fatal("wrong params should error")
	}
}

func TestLocalRunnerDeterministicPerSeed(t *testing.T) {
	spec := testSpec()
	parties := buildParties(t, spec, 6)
	a := arch(spec)
	global := initParams(t, a)
	runner := NewLocalRunner(parties, tensor.NewRNG(9))
	cfg := validCfg()
	cfg.Seed = 42
	u1, err := runner.TrainParty(0, a, global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := runner.TrainParty(0, a, global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range u1.Params {
		if u1.Params[i] != u2.Params[i] {
			t.Fatal("same seed must give identical local training")
		}
	}
}
