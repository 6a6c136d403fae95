package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Workspace owns every buffer one training/evaluation loop needs —
// activations, backprop deltas, the softmax probability vector, and a full
// set of gradient accumulators — allocated once for a given architecture
// and reused across calls. The *WS methods on MLP write into these buffers
// instead of allocating, which takes the per-example cost of forward,
// backward, and optimizer steps to zero heap allocations.
//
// TrainBatchWS additionally keeps whole-batch activation and delta matrices
// here; they grow to the largest mini-batch seen and then stay, so the
// steady-state allocation count of a training loop is zero as well.
//
// Ownership and aliasing rules:
//
//   - Buffers returned by ForwardWS/EmbedWS (and Grads) alias workspace
//     storage: they are valid until the next call that uses the workspace.
//     Clone anything that must be retained.
//   - A workspace fits any model with the same layer widths, so one
//     workspace can serve many models of one architecture (e.g. all experts
//     of a federation) — but only one at a time.
//   - Workspaces are not safe for concurrent use; give each goroutine its
//     own (see fl.LocalRunner's per-worker pool).
type Workspace struct {
	dims []int
	// acts[0] aliases the current input; acts[i+1] holds layer i's
	// post-activation output.
	acts []tensor.Vector
	// deltas[l] holds the backprop delta at layer l's output.
	deltas []tensor.Vector
	// prob holds the softmax distribution of the last forward pass.
	prob tensor.Vector
	// grads accumulates parameter gradients, one *Dense per layer.
	grads []*Dense
	// batch and bdeltas are the whole-batch counterparts of acts and deltas:
	// the activation and backprop-delta matrices TrainBatchWS runs a
	// mini-batch through. They are built by the first training call and grow
	// to the largest batch seen, so workspaces that only evaluate never pay
	// for them.
	batch   *BatchWorkspace
	bdeltas rowMats
}

// NewWorkspace allocates a workspace fitting m's architecture.
func NewWorkspace(m *MLP) *Workspace {
	return NewWorkspaceDims(m.dims)
}

// NewWorkspaceDims allocates a workspace for the given layer widths
// (the same slice NewMLP takes). All buffers are carved from a single
// tensor.Workspace arena so the whole thing is a handful of allocations.
func NewWorkspaceDims(dims []int) *Workspace {
	layers := len(dims) - 1
	classes := dims[len(dims)-1]
	need := classes
	for i := 1; i < len(dims); i++ {
		need += 2 * dims[i] // one activation + one delta per layer output
	}
	for i := 0; i < layers; i++ {
		need += dims[i]*dims[i+1] + dims[i+1] // gradient W + B
	}
	arena := tensor.NewWorkspace(need)

	ws := &Workspace{
		dims:   append([]int(nil), dims...),
		acts:   make([]tensor.Vector, layers+1),
		deltas: make([]tensor.Vector, layers),
		grads:  make([]*Dense, layers),
	}
	ws.bdeltas.widths = ws.dims[1:]
	for i := 0; i < layers; i++ {
		ws.acts[i+1] = arena.Vec(dims[i+1])
		ws.deltas[i] = arena.Vec(dims[i+1])
		ws.grads[i] = &Dense{W: arena.Mat(dims[i+1], dims[i]), B: arena.Vec(dims[i+1])}
	}
	ws.prob = arena.Vec(classes)
	return ws
}

// Fits reports whether the workspace matches m's layer widths.
func (ws *Workspace) Fits(m *MLP) bool { return ws.FitsDims(m.dims) }

// FitsDims reports whether the workspace matches the given layer widths.
func (ws *Workspace) FitsDims(dims []int) bool {
	if len(ws.dims) != len(dims) {
		return false
	}
	for i, d := range ws.dims {
		if d != dims[i] {
			return false
		}
	}
	return true
}

// check returns an error when the workspace does not fit m.
func (ws *Workspace) check(m *MLP) error {
	if !ws.Fits(m) {
		return fmt.Errorf("nn: workspace dims %v do not fit model dims %v: %w", ws.dims, m.dims, ErrDimension)
	}
	return nil
}

// Grads returns the gradient accumulators (aliased workspace storage).
func (ws *Workspace) Grads() []*Dense { return ws.grads }

// ZeroGrads resets every gradient accumulator to zero, the required state
// before a fresh round of GradientsWS/SoftGradientWS accumulation.
func (ws *Workspace) ZeroGrads() {
	for _, g := range ws.grads {
		g.W.Zero()
		g.B.Fill(0)
	}
}

// ForwardWS runs the network on x, returning the raw logits. The returned
// vector aliases workspace storage and is valid until the next use of ws.
func (m *MLP) ForwardWS(ws *Workspace, x tensor.Vector) (tensor.Vector, error) {
	if err := ws.check(m); err != nil {
		return nil, err
	}
	if err := m.forwardInto(ws.acts, x); err != nil {
		return nil, err
	}
	return ws.acts[len(ws.acts)-1], nil
}

// EmbedWS returns the penultimate-layer activation. The returned vector
// aliases workspace storage; clone it if it must survive the next call.
func (m *MLP) EmbedWS(ws *Workspace, x tensor.Vector) (tensor.Vector, error) {
	if _, err := m.ForwardWS(ws, x); err != nil {
		return nil, err
	}
	return ws.acts[len(ws.acts)-2], nil
}

// PredictWS returns the argmax class for x without allocating.
func (m *MLP) PredictWS(ws *Workspace, x tensor.Vector) (int, error) {
	logits, err := m.ForwardWS(ws, x)
	if err != nil {
		return 0, err
	}
	return logits.ArgMax(), nil
}

// LossExampleWS returns one example's cross-entropy loss, reusing ws.
func (m *MLP) LossExampleWS(ws *Workspace, x tensor.Vector, y int) (float64, error) {
	logits, err := m.ForwardWS(ws, x)
	if err != nil {
		return 0, err
	}
	softmaxInto(ws.prob, logits)
	if y < 0 || y >= len(ws.prob) {
		return 0, fmt.Errorf("nn: label %d out of range [0,%d)", y, len(ws.prob))
	}
	return -logp(ws.prob[y]), nil
}

// LossWS returns the mean cross-entropy loss over a batch, reusing ws.
func (m *MLP) LossWS(ws *Workspace, xs []tensor.Vector, ys []int) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmptyBatch
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("loss: %w: %d inputs vs %d labels", ErrDimension, len(xs), len(ys))
	}
	var total float64
	for i, x := range xs {
		loss, err := m.LossExampleWS(ws, x, ys[i])
		if err != nil {
			return 0, err
		}
		total += loss
	}
	return total / float64(len(xs)), nil
}

// AccuracyWS returns the fraction of correct argmax predictions, reusing ws.
func (m *MLP) AccuracyWS(ws *Workspace, xs []tensor.Vector, ys []int) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmptyBatch
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("accuracy: %w: %d inputs vs %d labels", ErrDimension, len(xs), len(ys))
	}
	correct := 0
	for i, x := range xs {
		pred, err := m.PredictWS(ws, x)
		if err != nil {
			return 0, err
		}
		if pred == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs)), nil
}

// GradientsWS accumulates one example's parameter gradients into ws.Grads()
// and returns the example's loss. Call ws.ZeroGrads() before a fresh batch;
// successive calls accumulate, exactly like the allocating gradient path.
func (m *MLP) GradientsWS(ws *Workspace, x tensor.Vector, y int) (float64, error) {
	if err := ws.check(m); err != nil {
		return 0, err
	}
	return m.hardGradInto(ws.acts, ws.deltas, ws.prob, ws.grads, x, y)
}
