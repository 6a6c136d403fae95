package nn

import (
	"testing"

	"repro/internal/tensor"
)

// The workspace contract has two halves, each pinned here: the *WS paths
// are bit-identical to the allocating paths (parity tests), and they stop
// allocating once warm (AllocsPerRun tests — the regression guard for the
// zero-allocation kernels).

func testModelAndBatch(t *testing.T) (*MLP, []tensor.Vector, []int) {
	t.Helper()
	m, err := NewMLP([]int{12, 24, 8, 5}, tensor.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(22)
	xs := make([]tensor.Vector, 24)
	ys := make([]int, 24)
	for i := range xs {
		xs[i] = rng.NormVec(12, 0, 1)
		ys[i] = rng.Intn(5)
	}
	return m, xs, ys
}

func TestForwardWSMatchesLogits(t *testing.T) {
	m, xs, _ := testModelAndBatch(t)
	ws := NewWorkspace(m)
	for _, x := range xs {
		want, err := m.Logits(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.ForwardWS(ws, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("logit[%d] = %g, allocating path %g", i, got[i], want[i])
			}
		}
		emb, err := m.Embed(x)
		if err != nil {
			t.Fatal(err)
		}
		embWS, err := m.EmbedWS(ws, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range emb {
			if embWS[i] != emb[i] {
				t.Fatalf("embedding[%d] = %g, allocating path %g", i, embWS[i], emb[i])
			}
		}
	}
}

func TestGradientsWSMatchesGradients(t *testing.T) {
	m, xs, ys := testModelAndBatch(t)
	ws := NewWorkspace(m)
	ws.ZeroGrads()
	grads := make([]*Dense, len(m.layers))
	for i, l := range m.layers {
		grads[i] = &Dense{W: tensor.NewMatrix(l.W.Rows, l.W.Cols), B: tensor.NewVector(len(l.B))}
	}
	for b := range xs {
		lossA, err := m.gradients(xs[b], ys[b], grads)
		if err != nil {
			t.Fatal(err)
		}
		lossB, err := m.GradientsWS(ws, xs[b], ys[b])
		if err != nil {
			t.Fatal(err)
		}
		if lossA != lossB {
			t.Fatalf("example %d: loss %g vs %g", b, lossB, lossA)
		}
	}
	for l := range grads {
		for i := range grads[l].W.Data {
			if ws.grads[l].W.Data[i] != grads[l].W.Data[i] {
				t.Fatalf("layer %d W grad[%d]: %g vs %g", l, i, ws.grads[l].W.Data[i], grads[l].W.Data[i])
			}
		}
		for i := range grads[l].B {
			if ws.grads[l].B[i] != grads[l].B[i] {
				t.Fatalf("layer %d B grad[%d]: %g vs %g", l, i, ws.grads[l].B[i], grads[l].B[i])
			}
		}
	}
}

// fullSGD exercises every optional term at once.
func fullSGD(ref tensor.Vector) *SGD {
	o := NewSGD(0.05)
	o.Momentum = 0.9
	o.WeightDecay = 1e-3
	o.ProxMu = 0.01
	o.ProxRef = ref
	return o
}

func TestSGDStepLayersMatchesStep(t *testing.T) {
	m, xs, ys := testModelAndBatch(t)
	m2 := m.Clone()
	ref := m.Params()
	optFlat := fullSGD(ref)
	optLayers := fullSGD(ref)
	ws := NewWorkspace(m)

	for step := 0; step < 5; step++ {
		ws.ZeroGrads()
		if _, err := m.GradientsWS(ws, xs[step], ys[step]); err != nil {
			t.Fatal(err)
		}
		flat := make(tensor.Vector, 0, m.NumParams())
		for _, g := range ws.grads {
			flat = append(flat, g.W.Data...)
			flat = append(flat, g.B...)
		}
		if err := optFlat.Step(m, flat); err != nil {
			t.Fatal(err)
		}
		if err := optLayers.StepLayers(m2, ws.grads); err != nil {
			t.Fatal(err)
		}
		pa, pb := m.Params(), m2.Params()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("step %d: param[%d] %g (Step) vs %g (StepLayers)", step, i, pa[i], pb[i])
			}
		}
	}
}

func TestAdamStepLayersMatchesStep(t *testing.T) {
	m, xs, ys := testModelAndBatch(t)
	m2 := m.Clone()
	ref := m.Params()
	newOpt := func() *Adam {
		o := NewAdam(0.01)
		o.WeightDecay = 1e-3
		o.ProxMu = 0.01
		o.ProxRef = ref
		return o
	}
	optFlat, optLayers := newOpt(), newOpt()
	ws := NewWorkspace(m)

	for step := 0; step < 5; step++ {
		ws.ZeroGrads()
		if _, err := m.GradientsWS(ws, xs[step], ys[step]); err != nil {
			t.Fatal(err)
		}
		flat := make(tensor.Vector, 0, m.NumParams())
		for _, g := range ws.grads {
			flat = append(flat, g.W.Data...)
			flat = append(flat, g.B...)
		}
		if err := optFlat.Step(m, flat); err != nil {
			t.Fatal(err)
		}
		if err := optLayers.StepLayers(m2, ws.grads); err != nil {
			t.Fatal(err)
		}
		pa, pb := m.Params(), m2.Params()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("step %d: param[%d] %g (Step) vs %g (StepLayers)", step, i, pa[i], pb[i])
			}
		}
	}
}

func TestTrainBatchWSReuseMatchesFresh(t *testing.T) {
	m, xs, ys := testModelAndBatch(t)
	m2 := m.Clone()
	optA := NewSGD(0.05)
	optA.Momentum = 0.9
	optB := NewSGD(0.05)
	optB.Momentum = 0.9
	ws := NewWorkspace(m2) // reused across batches

	for b := 0; b+8 <= len(xs); b += 8 {
		lossA, err := TrainBatch(m, xs[b:b+8], ys[b:b+8], optA)
		if err != nil {
			t.Fatal(err)
		}
		lossB, err := TrainBatchWS(ws, m2, xs[b:b+8], ys[b:b+8], optB)
		if err != nil {
			t.Fatal(err)
		}
		if lossA != lossB {
			t.Fatalf("batch %d: loss %g (fresh) vs %g (reused)", b, lossA, lossB)
		}
	}
	pa, pb := m.Params(), m2.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("param[%d]: %g (fresh) vs %g (reused)", i, pa[i], pb[i])
		}
	}
}

func TestSoftGradientWSMatchesSoftGradient(t *testing.T) {
	m, xs, _ := testModelAndBatch(t)
	target := tensor.Vector{0.1, 0.3, 0.2, 0.25, 0.15}
	ws := NewWorkspace(m)
	for _, x := range xs[:4] {
		flat, lossA, err := SoftGradient(m, x, target, 2)
		if err != nil {
			t.Fatal(err)
		}
		ws.ZeroGrads()
		lossB, err := m.SoftGradientWS(ws, x, target, 2)
		if err != nil {
			t.Fatal(err)
		}
		if lossA != lossB {
			t.Fatalf("loss %g vs %g", lossB, lossA)
		}
		i := 0
		for _, g := range ws.grads {
			for _, v := range g.W.Data {
				if v != flat[i] {
					t.Fatalf("grad[%d]: %g vs %g", i, v, flat[i])
				}
				i++
			}
			for _, v := range g.B {
				if v != flat[i] {
					t.Fatalf("grad[%d]: %g vs %g", i, v, flat[i])
				}
				i++
			}
		}
	}
}

func TestWorkspaceFits(t *testing.T) {
	m, _, _ := testModelAndBatch(t)
	ws := NewWorkspace(m)
	if !ws.Fits(m) {
		t.Fatal("workspace does not fit its own model")
	}
	other, err := NewMLP([]int{12, 24, 9, 5}, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Fits(other) {
		t.Fatal("workspace claims to fit a different architecture")
	}
	if _, err := other.ForwardWS(ws, tensor.NewVector(12)); err == nil {
		t.Fatal("ForwardWS accepted a mismatched workspace")
	}
	if _, err := other.GradientsWS(ws, tensor.NewVector(12), 0); err == nil {
		t.Fatal("GradientsWS accepted a mismatched workspace")
	}
}

// Allocation regression guards: the whole point of the workspace layer.

func TestForwardWSAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	m, xs, _ := testModelAndBatch(t)
	ws := NewWorkspace(m)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.ForwardWS(ws, xs[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ForwardWS allocates %v/op, want 0", n)
	}
}

func TestGradientsWSAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	m, xs, ys := testModelAndBatch(t)
	ws := NewWorkspace(m)
	if n := testing.AllocsPerRun(100, func() {
		ws.ZeroGrads()
		if _, err := m.GradientsWS(ws, xs[0], ys[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ZeroGrads+GradientsWS allocates %v/op, want 0", n)
	}
}

func TestStepLayersAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	m, xs, ys := testModelAndBatch(t)
	ws := NewWorkspace(m)
	ws.ZeroGrads()
	if _, err := m.GradientsWS(ws, xs[0], ys[0]); err != nil {
		t.Fatal(err)
	}
	sgd := NewSGD(0.01)
	sgd.Momentum = 0.9
	if err := sgd.StepLayers(m, ws.grads); err != nil { // warm up velocity
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := sgd.StepLayers(m, ws.grads); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SGD StepLayers allocates %v/op, want 0", n)
	}

	adam := NewAdam(0.001)
	if err := adam.StepLayers(m, ws.grads); err != nil { // warm up moments
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := adam.StepLayers(m, ws.grads); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Adam StepLayers allocates %v/op, want 0", n)
	}
}
