package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// trainBatchPerSample is the per-sample trainer TrainBatchWS replaced, kept
// as the parity reference: zero the accumulators, run GradientsWS example by
// example, average, step.
func trainBatchPerSample(ws *Workspace, m *MLP, xs []tensor.Vector, ys []int, opt Optimizer) (float64, error) {
	ws.ZeroGrads()
	var total float64
	for i, x := range xs {
		loss, err := m.GradientsWS(ws, x, ys[i])
		if err != nil {
			return 0, err
		}
		total += loss
	}
	inv := 1 / float64(len(xs))
	for _, g := range ws.grads {
		g.W.Scale(inv)
		g.B.Scale(inv)
	}
	if err := opt.StepLayers(m, ws.grads); err != nil {
		return 0, err
	}
	return total * inv, nil
}

// The two architectures the repo benchmark trains.
var benchArchs = [][]int{{32, 128, 64, 10}, {32, 16, 8, 10}}

func TestTrainBatchMatchesPerSampleLoop(t *testing.T) {
	optimizers := map[string]func(ref tensor.Vector) Optimizer{
		"sgd": func(ref tensor.Vector) Optimizer {
			return &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-3, ProxMu: 0.1, ProxRef: ref}
		},
		"adam": func(ref tensor.Vector) Optimizer {
			return &Adam{LR: 0.01, WeightDecay: 1e-3, ProxMu: 0.1, ProxRef: ref}
		},
	}
	for _, arch := range benchArchs {
		for _, batch := range []int{1, 7, 8, 16, 33} { // 7 is ragged, 33 exceeds matMulBlock
			for name, newOpt := range optimizers {
				for _, deadHidden := range []bool{false, true} {
					t.Run(fmt.Sprintf("%v/batch=%d/%s/dead=%v", arch, batch, name, deadHidden), func(t *testing.T) {
						a, err := NewMLP(arch, tensor.NewRNG(7))
						if err != nil {
							t.Fatal(err)
						}
						if deadHidden {
							// No unit of the last hidden layer ever fires, so
							// every hidden delta of every sample is zero and
							// the zero-skips carry the whole backward pass.
							a.layers[len(a.layers)-2].B.Fill(-1e6)
						}
						b := a.Clone()
						ref := a.Params()
						optA, optB := newOpt(ref), newOpt(ref)
						wsA, wsB := NewWorkspace(a), NewWorkspace(b)
						rng := tensor.NewRNG(uint64(batch))
						for step := 0; step < 20; step++ {
							xs, ys := make([]tensor.Vector, batch), make([]int, batch)
							for i := range xs {
								xs[i] = rng.NormVec(arch[0], 0, 1)
								ys[i] = rng.Intn(arch[len(arch)-1])
							}
							lossA, err := trainBatchPerSample(wsA, a, xs, ys, optA)
							if err != nil {
								t.Fatal(err)
							}
							lossB, err := TrainBatchWS(wsB, b, xs, ys, optB)
							if err != nil {
								t.Fatal(err)
							}
							if math.Float64bits(lossA) != math.Float64bits(lossB) {
								t.Fatalf("step %d: loss %v (per-sample) vs %v (batched)", step, lossA, lossB)
							}
							pa, pb := a.Params(), b.Params()
							for i := range pa {
								if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
									t.Fatalf("step %d: param[%d] %v (per-sample) vs %v (batched)", step, i, pa[i], pb[i])
								}
							}
						}
					})
				}
			}
		}
	}
}

func TestTrainBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	m, err := NewMLP(benchArchs[0], tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := benchBatch(33, 32, 10)
	ws := NewWorkspace(m)
	opt := NewSGD(0.01)
	opt.Momentum = 0.9
	// The first, ragged batch sizes the batch matrices; smaller and equal
	// batches after it reuse them.
	if _, err := TrainBatchWS(ws, m, xs, ys, opt); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{33, 7, 16} {
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := TrainBatchWS(ws, m, xs[:n], ys[:n], opt); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("TrainBatchWS allocates %v/op at batch %d after warm-up, want 0", allocs, n)
		}
	}
}
