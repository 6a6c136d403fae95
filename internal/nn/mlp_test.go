package nn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func newTestMLP(t *testing.T, dims ...int) *MLP {
	t.Helper()
	m, err := NewMLP(dims, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMLPValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := NewMLP([]int{4, 2}, rng); err == nil {
		t.Fatal("expected error for <3 widths")
	}
	if _, err := NewMLP([]int{4, 0, 2}, rng); err == nil {
		t.Fatal("expected error for zero width")
	}
	m, err := NewMLP([]int{4, 8, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.InputDim() != 4 || m.EmbeddingDim() != 8 || m.NumClasses() != 3 {
		t.Fatalf("dims: in=%d emb=%d out=%d", m.InputDim(), m.EmbeddingDim(), m.NumClasses())
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax(tensor.Vector{1, 2, 3})
	var sum float64
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax component out of (0,1): %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %g", sum)
	}
	if p[2] <= p[1] || p[1] <= p[0] {
		t.Fatalf("softmax not monotone: %v", p)
	}
	// Huge logits must not overflow.
	big := Softmax(tensor.Vector{1000, 1000, 999})
	for _, v := range big {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax unstable: %v", big)
		}
	}
	if got := Softmax(tensor.Vector{}); len(got) != 0 {
		t.Fatal("empty softmax should be empty")
	}
}

func TestForwardShapeErrors(t *testing.T) {
	m := newTestMLP(t, 4, 8, 3)
	if _, err := m.Logits(tensor.Vector{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("want ErrDimension, got %v", err)
	}
	if _, err := m.Embed(tensor.Vector{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("want ErrDimension, got %v", err)
	}
}

func TestEmbedDimension(t *testing.T) {
	m := newTestMLP(t, 4, 16, 8, 3)
	e, err := m.Embed(tensor.Vector{1, 0, -1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != 8 {
		t.Fatalf("embedding dim = %d, want 8", len(e))
	}
	// ReLU output: all components non-negative.
	for _, v := range e {
		if v < 0 {
			t.Fatalf("embedding has negative component: %v", e)
		}
	}
}

func TestParamsRoundTrip(t *testing.T) {
	m := newTestMLP(t, 5, 7, 4)
	p := m.Params()
	if len(p) != m.NumParams() {
		t.Fatalf("params len = %d, want %d", len(p), m.NumParams())
	}
	want := 5*7 + 7 + 7*4 + 4
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
	clone := m.Clone()
	// Mutate the original's params; clone must be unaffected.
	p2 := p.Clone()
	p2.Scale(2)
	if err := m.SetParams(p2); err != nil {
		t.Fatal(err)
	}
	cp := clone.Params()
	for i := range cp {
		if cp[i] != p[i] {
			t.Fatal("clone shares storage with original")
		}
	}
	if err := m.SetParams(tensor.Vector{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("want ErrDimension, got %v", err)
	}
	// Round-trip exactness.
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	rt := m.Params()
	for i := range rt {
		if rt[i] != p[i] {
			t.Fatal("params round trip mismatch")
		}
	}
}

func TestLossAndAccuracyValidation(t *testing.T) {
	m := newTestMLP(t, 2, 4, 2)
	xs := []tensor.Vector{{1, 0}}
	if _, err := m.Loss(nil, nil); err == nil {
		t.Fatal("empty batch should error")
	}
	if _, err := m.Loss(xs, []int{0, 1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("length mismatch = %v", err)
	}
	if _, err := m.Loss(xs, []int{5}); err == nil {
		t.Fatal("out-of-range label should error")
	}
	if _, err := m.Accuracy(nil, nil); err == nil {
		t.Fatal("empty accuracy should error")
	}
	if _, err := m.Accuracy(xs, []int{0, 0}); !errors.Is(err, ErrDimension) {
		t.Fatalf("accuracy mismatch = %v", err)
	}
}

// twoBlobData builds a linearly separable 2-class problem.
func twoBlobData(rng *tensor.RNG, n int) ([]tensor.Vector, []int) {
	xs := make([]tensor.Vector, 0, 2*n)
	ys := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		xs = append(xs, tensor.Vector{2 + rng.Norm()*0.5, 2 + rng.Norm()*0.5})
		ys = append(ys, 0)
		xs = append(xs, tensor.Vector{-2 + rng.Norm()*0.5, -2 + rng.Norm()*0.5})
		ys = append(ys, 1)
	}
	return xs, ys
}

func TestTrainingLearnsSeparableData(t *testing.T) {
	rng := tensor.NewRNG(7)
	m, err := NewMLP([]int{2, 16, 8, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := twoBlobData(rng, 50)
	before, err := m.Accuracy(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.1)
	opt.Momentum = 0.9
	loss0, err := m.Loss(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainEpochs(m, xs, ys, opt, 20, 16, rng); err != nil {
		t.Fatal(err)
	}
	after, err := m.Accuracy(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	loss1, err := m.Loss(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if after < 0.95 {
		t.Fatalf("accuracy after training = %g (before %g)", after, before)
	}
	if loss1 >= loss0 {
		t.Fatalf("loss did not decrease: %g -> %g", loss0, loss1)
	}
}

func TestGradientCheck(t *testing.T) {
	// Finite-difference check of the analytic gradient.
	rng := tensor.NewRNG(3)
	m, err := NewMLP([]int{3, 5, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{0.5, -0.3, 0.8}
	y := 1

	grads := make([]*Dense, len(m.layers))
	for i, l := range m.layers {
		grads[i] = &Dense{W: tensor.NewMatrix(l.W.Rows, l.W.Cols), B: tensor.NewVector(len(l.B))}
	}
	if _, err := m.gradients(x, y, grads); err != nil {
		t.Fatal(err)
	}
	flat := make(tensor.Vector, 0, m.NumParams())
	for _, g := range grads {
		flat = append(flat, g.W.Data...)
		flat = append(flat, g.B...)
	}

	p := m.Params()
	const eps = 1e-5
	lossAt := func(params tensor.Vector) float64 {
		if err := m.SetParams(params); err != nil {
			t.Fatal(err)
		}
		l, err := m.Loss([]tensor.Vector{x}, []int{y})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// Spot-check a sample of coordinates.
	for _, idx := range []int{0, 3, 7, len(p) - 1, len(p) / 2} {
		plus := p.Clone()
		plus[idx] += eps
		minus := p.Clone()
		minus[idx] -= eps
		numeric := (lossAt(plus) - lossAt(minus)) / (2 * eps)
		if math.Abs(numeric-flat[idx]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("grad[%d]: analytic %g vs numeric %g", idx, flat[idx], numeric)
		}
	}
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySoftmaxIsDistribution(t *testing.T) {
	f := func(raw [6]float64) bool {
		v := make(tensor.Vector, 6)
		for i, x := range raw {
			if math.IsNaN(x) {
				x = 0
			}
			v[i] = math.Mod(x, 50)
		}
		p := Softmax(v)
		var sum float64
		for _, q := range p {
			if q < 0 || math.IsNaN(q) {
				return false
			}
			sum += q
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDimsReturnsCopy(t *testing.T) {
	m := newTestMLP(t, 2, 3, 2)
	d := m.Dims()
	d[0] = 99
	if m.InputDim() != 2 {
		t.Fatal("Dims leaked internal slice")
	}
}

// TestSkipInitMatchesNewMLP: skipping a model's initialization leaves the
// stream exactly where building the model from it does.
func TestSkipInitMatchesNewMLP(t *testing.T) {
	dims := []int{5, 7, 4, 3}
	built, skipped := tensor.NewRNG(11), tensor.NewRNG(11)
	if _, err := NewMLP(dims, built); err != nil {
		t.Fatal(err)
	}
	SkipInit(dims, skipped)
	if built.State() != skipped.State() {
		t.Fatal("SkipInit left the stream somewhere NewMLP does not")
	}
}
