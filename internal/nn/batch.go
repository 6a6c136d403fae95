package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// BatchWorkspace owns the activation matrices a whole-batch forward pass
// needs: one rows×width matrix per layer output plus the packed input
// matrix, all carved from a single tensor.Workspace arena. The *BatchWS
// methods run an entire batch through each Dense layer as one blocked GEMM
// (tensor.MatMulTransInto) instead of a per-sample MatVecInto loop — the
// serving tier's compute hot path.
//
// Ownership and aliasing rules (matching Workspace):
//
//   - Matrices returned by ForwardBatchWS/EmbedBatchWS alias workspace
//     storage and are valid until the next call that uses the workspace.
//     Clone rows that must be retained.
//   - A batch workspace fits any model with the same layer widths; one
//     can serve every expert of a snapshot, one call at a time.
//   - Not safe for concurrent use — give each goroutine its own.
//
// Capacity grows to the largest batch ever passed and never shrinks, so a
// steady-state loop over bounded batches performs zero heap allocations
// (pinned by TestBatchForwardAllocateNothing).
type BatchWorkspace struct {
	// views[0] is the packed input (rows×dims[0]); views[l+1] holds layer l's
	// post-activation output.
	rowMats
}

// rowMats is a set of row-major matrices that share one live row count: one
// matrix per width, all carved from a single arena at full capacity, plus
// views of the same storage re-headed to the live batch size — mutated in
// place by setRows so per-call view construction allocates nothing.
type rowMats struct {
	widths  []int
	capRows int
	full    []*tensor.Matrix
	views   []*tensor.Matrix
}

// NewBatchWorkspace allocates a batch workspace fitting m's architecture
// with initial capacity for maxBatch rows.
func NewBatchWorkspace(m *MLP, maxBatch int) *BatchWorkspace {
	return NewBatchWorkspaceDims(m.dims, maxBatch)
}

// NewBatchWorkspaceDims allocates a batch workspace for the given layer
// widths (the same slice NewMLP takes).
func NewBatchWorkspaceDims(dims []int, maxBatch int) *BatchWorkspace {
	if maxBatch < 1 {
		maxBatch = 1
	}
	bw := &BatchWorkspace{rowMats{widths: append([]int(nil), dims...)}}
	bw.grow(maxBatch)
	return bw
}

// grow (re)carves every matrix with capacity for rows rows.
func (r *rowMats) grow(rows int) {
	need := 0
	for _, d := range r.widths {
		need += rows * d
	}
	arena := tensor.NewWorkspace(need)
	r.capRows = rows
	r.full = make([]*tensor.Matrix, len(r.widths))
	r.views = make([]*tensor.Matrix, len(r.widths))
	for i, d := range r.widths {
		r.full[i] = arena.Mat(rows, d)
		r.views[i] = &tensor.Matrix{Rows: rows, Cols: d, Data: r.full[i].Data}
	}
}

// setRows points the views at the first n rows, growing capacity if the
// batch exceeds it (a doubling grow, so repeated ragged sizes settle).
func (r *rowMats) setRows(n int) {
	if n > r.capRows {
		rows := 2 * r.capRows
		if rows < n {
			rows = n
		}
		r.grow(rows)
	}
	for i, v := range r.views {
		v.Rows = n
		v.Data = r.full[i].Data[:n*v.Cols]
	}
}

// Cap returns the current row capacity.
func (bw *BatchWorkspace) Cap() int { return bw.capRows }

// Fits reports whether the workspace matches m's layer widths.
func (bw *BatchWorkspace) Fits(m *MLP) bool { return bw.FitsDims(m.dims) }

// FitsDims reports whether the workspace matches the given layer widths.
func (bw *BatchWorkspace) FitsDims(dims []int) bool {
	if len(bw.widths) != len(dims) {
		return false
	}
	for i, d := range bw.widths {
		if d != dims[i] {
			return false
		}
	}
	return true
}

// check returns an error when the workspace does not fit m.
func (bw *BatchWorkspace) check(m *MLP) error {
	if !bw.Fits(m) {
		return fmt.Errorf("nn: batch workspace dims %v do not fit model dims %v: %w", bw.widths, m.dims, ErrDimension)
	}
	return nil
}

// forwardBatch packs xs into the input matrix and runs the first nLayers
// layers over the whole batch: one GEMM against each layer's W, then a bias
// add and (on hidden layers) ReLU per row. Each output element accumulates
// in the same order as the per-sample forwardInto path, so the batched
// activations are bit-identical to running ForwardWS per sample. Passing
// nLayers < len(m.layers) stops early — the embedding path skips the final
// layer entirely, which cannot change the penultimate activations.
func (m *MLP) forwardBatch(bw *BatchWorkspace, xs []tensor.Vector, nLayers int) error {
	if len(xs) == 0 {
		return errEmptyBatch
	}
	if err := bw.check(m); err != nil {
		return err
	}
	for i, x := range xs {
		if len(x) != m.InputDim() {
			return fmt.Errorf("forwardbatch: %w: input %d is %d-dimensional, want %d",
				ErrDimension, i, len(x), m.InputDim())
		}
	}
	bw.setRows(len(xs))
	in := bw.views[0]
	for i, x := range xs {
		copy(in.Row(i), x)
	}
	cur := in
	for l := 0; l < nLayers; l++ {
		layer := m.layers[l]
		z := bw.views[l+1]
		if err := tensor.MatMulTransInto(z, cur, layer.W); err != nil {
			return err
		}
		last := l == len(m.layers)-1
		for i := 0; i < z.Rows; i++ {
			row := z.Row(i)
			if err := row.Add(layer.B); err != nil {
				return err
			}
			if !last {
				relu(row)
			}
		}
		cur = z
	}
	return nil
}

// ForwardBatchWS runs the whole batch through the network, returning the
// len(xs)×NumClasses logits matrix. The matrix aliases workspace storage
// and is valid until the next use of bw.
func (m *MLP) ForwardBatchWS(bw *BatchWorkspace, xs []tensor.Vector) (*tensor.Matrix, error) {
	if err := m.forwardBatch(bw, xs, len(m.layers)); err != nil {
		return nil, err
	}
	return bw.views[len(bw.views)-1], nil
}

// EmbedBatchWS runs the whole batch and returns the len(xs)×EmbeddingDim
// matrix of penultimate-layer activations — the batched form of EmbedWS,
// used by the serving tier to route a full batch through the encoder in one
// GEMM. The final layer is skipped (its output is unused and cannot affect
// the penultimate activations), so the values stay bit-identical to EmbedWS
// while costing one GEMM less. The matrix aliases workspace storage.
func (m *MLP) EmbedBatchWS(bw *BatchWorkspace, xs []tensor.Vector) (*tensor.Matrix, error) {
	if err := m.forwardBatch(bw, xs, len(m.layers)-1); err != nil {
		return nil, err
	}
	return bw.views[len(bw.views)-2], nil
}

// PredictBatchWS writes the argmax class of each input into classes, which
// must have the batch's length. Results are bit-identical to calling
// PredictWS per sample.
func (m *MLP) PredictBatchWS(bw *BatchWorkspace, xs []tensor.Vector, classes []int) error {
	if len(classes) != len(xs) {
		return fmt.Errorf("predictbatch: %w: %d inputs vs %d class slots", ErrDimension, len(xs), len(classes))
	}
	logits, err := m.ForwardBatchWS(bw, xs)
	if err != nil {
		return err
	}
	for i := range xs {
		classes[i] = logits.Row(i).ArgMax()
	}
	return nil
}

// gradientsBatch accumulates the hard-label gradients of a whole mini-batch
// into ws.Grads() and returns the summed loss: the forward pass is one GEMM
// per layer, the weight gradient dW += Δᵀ·A and the propagated delta
// Δ_prev = Δ·W one GEMM each. Every accumulator receives its per-sample
// contributions in ascending sample order with the same zero-skips as the
// per-sample kernels, so the result is bit-identical to zeroing the
// gradients and calling GradientsWS on each example in turn.
func (m *MLP) gradientsBatch(ws *Workspace, xs []tensor.Vector, ys []int) (float64, error) {
	if err := ws.check(m); err != nil {
		return 0, err
	}
	if ws.batch == nil {
		ws.batch = NewBatchWorkspaceDims(ws.dims, len(xs))
	}
	if err := m.forwardBatch(ws.batch, xs, len(m.layers)); err != nil {
		return 0, err
	}
	ws.bdeltas.setRows(len(xs))
	acts, deltas := ws.batch.views, ws.bdeltas.views
	ws.ZeroGrads()

	// Output-layer delta: the softmax cross-entropy gradient, row by row.
	logits, out := acts[len(acts)-1], deltas[len(deltas)-1]
	var total float64
	for s, y := range ys {
		prob := out.Row(s)
		softmaxInto(prob, logits.Row(s))
		if y < 0 || y >= len(prob) {
			return 0, fmt.Errorf("nn: label %d out of range [0,%d)", y, len(prob))
		}
		total += -logp(prob[y])
		prob[y] -= 1
	}

	for l := len(m.layers) - 1; l >= 0; l-- {
		delta, in := deltas[l], acts[l]
		if err := tensor.MatTMulAddInto(ws.grads[l].W, delta, in); err != nil {
			return 0, err
		}
		for s := 0; s < delta.Rows; s++ {
			if err := ws.grads[l].B.Add(delta.Row(s)); err != nil {
				return 0, err
			}
		}
		if l == 0 {
			break
		}
		// Propagate: Δ_prev = Δ·W ⊙ relu'(pre-act). in holds the post-ReLU
		// output of layer l-1; ReLU' is 1 where it is positive.
		prev := deltas[l-1]
		if err := tensor.MatMulInto(prev, delta, m.layers[l].W); err != nil {
			return 0, err
		}
		for i, a := range in.Data {
			if a <= 0 {
				prev.Data[i] = 0
			}
		}
	}
	return total, nil
}
