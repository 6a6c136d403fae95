// Package nn implements the compact neural-network substrate used in place
// of the paper's deep CNN encoders (LeNet-5 / ResNet / DenseNet). Models are
// multi-layer perceptrons with ReLU activations, a softmax cross-entropy
// head, and an explicit penultimate "embedding" layer: ShiftEx reads that
// layer as the latent representation fed into MMD-based covariate-shift
// detection (§4.2), exactly as the paper reads the pre-logit layer of its
// CNNs.
//
// The package exposes flattened parameter vectors so the federated layer can
// aggregate, diff, and compare models without knowing their architecture.
package nn

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
)

// ErrDimension indicates an input or parameter vector of the wrong size.
var ErrDimension = errors.New("nn: dimension mismatch")

// Dense is a fully connected layer y = W·x + b.
type Dense struct {
	W *tensor.Matrix
	B tensor.Vector
}

// newDense builds a dense layer with He-initialized weights.
func newDense(in, out int, rng *tensor.RNG) *Dense {
	d := &Dense{W: tensor.NewMatrix(out, in), B: tensor.NewVector(out)}
	d.heInit(rng)
	return d
}

// heInit draws He-initialized weights: one rng.Norm per weight, in storage
// order.
func (d *Dense) heInit(rng *tensor.RNG) {
	scale := 1.41421356 / sqrtf(float64(d.W.Cols)) // He init: sqrt(2/in)
	for i := range d.W.Data {
		d.W.Data[i] = scale * rng.Norm()
	}
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 1
	}
	// Newton iterations are unnecessary; defer to math.Sqrt via a tiny shim
	// kept separate for clarity.
	return sqrt(x)
}

// MLP is a multi-layer perceptron classifier. The activation of the last
// hidden layer (after ReLU) is the model's embedding.
type MLP struct {
	dims   []int
	layers []*Dense
}

// NewMLP builds an MLP with the given layer widths, e.g. {32, 64, 16, 10}
// for a 32-d input, one 64-d hidden layer, a 16-d embedding layer, and 10
// classes. At least input, one hidden (embedding), and output widths are
// required.
func NewMLP(dims []int, rng *tensor.RNG) (*MLP, error) {
	if len(dims) < 3 {
		return nil, fmt.Errorf("nn: need >=3 layer widths (in, hidden..., out), got %d", len(dims))
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("nn: non-positive layer width %d", d)
		}
	}
	m := &MLP{dims: append([]int(nil), dims...)}
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, newDense(dims[i], dims[i+1], rng))
	}
	return m, nil
}

// SkipInit advances rng past the draws NewMLP(dims, rng) takes — one normal
// per weight — without computing them. Callers that cache a model and load
// every parameter anyway, but owe their RNG stream the init draws (fl's party
// executor), use it instead of initializing a model.
func SkipInit(dims []int, rng *tensor.RNG) {
	for i := 0; i+1 < len(dims); i++ {
		rng.SkipNorm(dims[i] * dims[i+1])
	}
}

// InputDim returns the expected input width.
func (m *MLP) InputDim() int { return m.dims[0] }

// NumClasses returns the output width.
func (m *MLP) NumClasses() int { return m.dims[len(m.dims)-1] }

// EmbeddingDim returns the width of the penultimate (embedding) layer.
func (m *MLP) EmbeddingDim() int { return m.dims[len(m.dims)-2] }

// forwardInto runs the network writing layer outputs into the caller-owned
// activation buffers: acts[0] is set to alias the input, acts[i+1] (length
// dims[i+1]) receives layer i's post-activation output, and the last entry
// holds raw logits (no softmax). This is the single forward implementation;
// the allocating wrappers and the Workspace path both run through it.
func (m *MLP) forwardInto(acts []tensor.Vector, x tensor.Vector) error {
	if len(x) != m.InputDim() {
		return fmt.Errorf("forward: %w: input %d, want %d", ErrDimension, len(x), m.InputDim())
	}
	acts[0] = x
	for i, l := range m.layers {
		z := acts[i+1]
		if err := tensor.MatVecInto(z, l.W, acts[i]); err != nil {
			return err
		}
		if err := z.Add(l.B); err != nil {
			return err
		}
		if i < len(m.layers)-1 {
			relu(z)
		}
	}
	return nil
}

// forward runs the network into freshly allocated buffers, returning
// per-layer post-activation values.
func (m *MLP) forward(x tensor.Vector) ([]tensor.Vector, error) {
	acts := make([]tensor.Vector, len(m.layers)+1)
	for i := range m.layers {
		acts[i+1] = tensor.NewVector(m.dims[i+1])
	}
	if err := m.forwardInto(acts, x); err != nil {
		return nil, err
	}
	return acts, nil
}

func relu(v tensor.Vector) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// Logits returns the raw class scores for x.
func (m *MLP) Logits(x tensor.Vector) (tensor.Vector, error) {
	acts, err := m.forward(x)
	if err != nil {
		return nil, err
	}
	return acts[len(acts)-1], nil
}

// Predict returns the argmax class for x.
func (m *MLP) Predict(x tensor.Vector) (int, error) {
	logits, err := m.Logits(x)
	if err != nil {
		return 0, err
	}
	return logits.ArgMax(), nil
}

// Embed returns the penultimate-layer activation: the latent representation
// ShiftEx uses for covariate-shift detection.
func (m *MLP) Embed(x tensor.Vector) (tensor.Vector, error) {
	acts, err := m.forward(x)
	if err != nil {
		return nil, err
	}
	return acts[len(acts)-2].Clone(), nil
}

// Softmax converts logits to a probability vector, numerically stabilized.
func Softmax(logits tensor.Vector) tensor.Vector {
	out := logits.Clone()
	softmaxInto(out, out)
	return out
}

// softmaxInto writes the stabilized softmax of v into dst (dst may alias
// v). Both buffers must have equal length.
func softmaxInto(dst, v tensor.Vector) {
	if len(dst) == 0 {
		return
	}
	max := v[0]
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range v {
		e := exp(x - max)
		dst[i] = e
		sum += e
	}
	if sum == 0 {
		dst.Fill(1 / float64(len(dst)))
		return
	}
	dst.Scale(1 / sum)
}

// errEmptyBatch is the shared empty-input error of the batch entry points.
var errEmptyBatch = errors.New("nn: empty batch")

// Loss returns the mean cross-entropy loss of the model over a batch.
func (m *MLP) Loss(xs []tensor.Vector, ys []int) (float64, error) {
	return m.LossWS(NewWorkspace(m), xs, ys)
}

// Accuracy returns the fraction of correct argmax predictions over a batch.
func (m *MLP) Accuracy(xs []tensor.Vector, ys []int) (float64, error) {
	return m.AccuracyWS(NewWorkspace(m), xs, ys)
}

// hardGradInto accumulates one example's hard-label gradients into grads
// using the caller-owned forward/backprop buffers, returning the example's
// loss. It is the shared core of GradientsWS and the allocating gradients.
func (m *MLP) hardGradInto(acts, deltas []tensor.Vector, prob tensor.Vector, grads []*Dense, x tensor.Vector, y int) (float64, error) {
	if err := m.forwardInto(acts, x); err != nil {
		return 0, err
	}
	logits := acts[len(acts)-1]
	softmaxInto(prob, logits)
	if y < 0 || y >= len(prob) {
		return 0, fmt.Errorf("nn: label %d out of range [0,%d)", y, len(prob))
	}
	loss := -logp(prob[y])

	// delta at the output layer: softmax cross-entropy gradient.
	delta := deltas[len(deltas)-1]
	copy(delta, prob)
	delta[y] -= 1

	if err := m.backpropInto(acts, deltas, grads); err != nil {
		return 0, err
	}
	return loss, nil
}

// gradients accumulates parameter gradients for one example into grads,
// returning the example's loss. grads must have the same shapes as m.
func (m *MLP) gradients(x tensor.Vector, y int, grads []*Dense) (float64, error) {
	acts, deltas, prob := m.newBackpropBuffers()
	return m.hardGradInto(acts, deltas, prob, grads, x, y)
}

// newBackpropBuffers allocates one-shot forward/backprop buffers for the
// non-workspace gradient paths.
func (m *MLP) newBackpropBuffers() (acts, deltas []tensor.Vector, prob tensor.Vector) {
	acts = make([]tensor.Vector, len(m.layers)+1)
	deltas = make([]tensor.Vector, len(m.layers))
	for i := range m.layers {
		acts[i+1] = tensor.NewVector(m.dims[i+1])
		deltas[i] = tensor.NewVector(m.dims[i+1])
	}
	return acts, deltas, tensor.NewVector(m.NumClasses())
}

// Clone returns a deep copy of the model.
func (m *MLP) Clone() *MLP {
	out := &MLP{dims: append([]int(nil), m.dims...)}
	out.layers = make([]*Dense, len(m.layers))
	for i, l := range m.layers {
		out.layers[i] = &Dense{W: l.W.Clone(), B: l.B.Clone()}
	}
	return out
}

// NumParams returns the total number of scalar parameters.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.layers {
		n += len(l.W.Data) + len(l.B)
	}
	return n
}

// ParamCount returns the flattened parameter count of an architecture
// without building a model: Σ (dims[i]+1)·dims[i+1].
func ParamCount(dims []int) int {
	n := 0
	for i := 0; i+1 < len(dims); i++ {
		n += (dims[i] + 1) * dims[i+1]
	}
	return n
}

// Params returns a flattened copy of all parameters.
func (m *MLP) Params() tensor.Vector {
	return m.AppendParams(make(tensor.Vector, 0, m.NumParams()))
}

// AppendParams appends the flattened parameters to dst and returns the
// extended vector — Params into a buffer the caller already owns.
func (m *MLP) AppendParams(dst tensor.Vector) tensor.Vector {
	for _, l := range m.layers {
		dst = append(dst, l.W.Data...)
		dst = append(dst, l.B...)
	}
	return dst
}

// SetParams loads a flattened parameter vector produced by Params.
func (m *MLP) SetParams(p tensor.Vector) error {
	if len(p) != m.NumParams() {
		return fmt.Errorf("setparams: %w: got %d, want %d", ErrDimension, len(p), m.NumParams())
	}
	off := 0
	for _, l := range m.layers {
		copy(l.W.Data, p[off:off+len(l.W.Data)])
		off += len(l.W.Data)
		copy(l.B, p[off:off+len(l.B)])
		off += len(l.B)
	}
	return nil
}

// Dims returns a copy of the layer widths.
func (m *MLP) Dims() []int { return append([]int(nil), m.dims...) }
