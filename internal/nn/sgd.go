package nn

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
)

// SGD is a stochastic gradient descent optimizer with optional momentum,
// weight decay, and a FedProx proximal term μ/2·||θ - θ_ref||² that pulls
// local updates toward a reference (global) model.
//
// Steps mutate the model's parameters layer-wise in place; no flattened
// copy of the parameters is ever materialized. Optimizer state (velocity)
// is kept as one flat vector indexed by parameter offset, so Step and
// StepLayers share state and produce bit-identical updates.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	// ProxMu and ProxRef enable the FedProx proximal term when ProxMu > 0.
	// ProxRef must be a flattened parameter vector of the trained model.
	ProxMu  float64
	ProxRef tensor.Vector

	velocity tensor.Vector
}

// NewSGD returns an optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Reset clears the optimizer state (velocity) in place, so one SGD can serve
// successive independent trainings of one architecture without reallocating.
func (o *SGD) Reset() { o.velocity.Fill(0) }

// prepare validates the optimizer against a model with n parameters and
// lazily sizes the velocity state.
func (o *SGD) prepare(n int) error {
	if o.LR <= 0 {
		return errors.New("nn: learning rate must be positive")
	}
	if o.ProxMu > 0 && len(o.ProxRef) != n {
		return fmt.Errorf("sgd step: %w: prox ref %d vs params %d", ErrDimension, len(o.ProxRef), n)
	}
	if o.Momentum > 0 {
		if o.velocity == nil {
			o.velocity = tensor.NewVector(n)
		}
		if len(o.velocity) != n {
			return fmt.Errorf("sgd step: %w: velocity %d vs params %d", ErrDimension, len(o.velocity), n)
		}
	}
	return nil
}

// stepSegment applies the SGD update rule to one contiguous parameter
// segment p with gradient g, where off is the segment's offset into the
// flattened parameter vector (indexing velocity and ProxRef). Per element:
// eff = g + weightDecay·θ + μ·(θ − θ_ref); v = momentum·v + eff;
// θ -= lr·(v or eff).
func (o *SGD) stepSegment(p, g []float64, off int) {
	// The hyper-parameters and state windows are loaded once: the loop
	// writes p and velocity, so the compiler would otherwise reload every
	// field of o per element.
	lr, decay, mu, momentum := o.LR, o.WeightDecay, o.ProxMu, o.Momentum
	var ref, vel []float64
	if mu > 0 {
		ref = o.ProxRef[off : off+len(p)]
	}
	if momentum > 0 {
		vel = o.velocity[off : off+len(p)]
	}
	g = g[:len(p)]
	for i, pi := range p {
		eff := g[i]
		if decay > 0 {
			eff += decay * pi
		}
		if mu > 0 {
			eff += mu * pi
			eff -= mu * ref[i]
		}
		if momentum > 0 {
			v := momentum*vel[i] + eff
			vel[i] = v
			eff = v
		}
		p[i] = pi - lr*eff
	}
}

// Step applies one gradient step to model m given the flattened gradient g
// (already averaged over the batch).
func (o *SGD) Step(m *MLP, g tensor.Vector) error {
	if o.LR <= 0 {
		return errors.New("nn: learning rate must be positive")
	}
	n := m.NumParams()
	if len(g) != n {
		return fmt.Errorf("sgd step: %w: grad %d vs params %d", ErrDimension, len(g), n)
	}
	if err := o.prepare(n); err != nil {
		return err
	}
	off := 0
	for _, l := range m.layers {
		o.stepSegment(l.W.Data, g[off:off+len(l.W.Data)], off)
		off += len(l.W.Data)
		o.stepSegment(l.B, g[off:off+len(l.B)], off)
		off += len(l.B)
	}
	return nil
}

// StepLayers applies one gradient step from per-layer gradient accumulators
// (e.g. Workspace.Grads()), updating the model in place with zero
// allocations at steady state. Bit-identical to Step on the flattened
// concatenation of grads.
func (o *SGD) StepLayers(m *MLP, grads []*Dense) error {
	if err := checkGradShapes(m, grads); err != nil {
		return err
	}
	if err := o.prepare(m.NumParams()); err != nil {
		return err
	}
	off := 0
	for li, l := range m.layers {
		o.stepSegment(l.W.Data, grads[li].W.Data, off)
		off += len(l.W.Data)
		o.stepSegment(l.B, grads[li].B, off)
		off += len(l.B)
	}
	return nil
}

// checkGradShapes validates per-layer gradient accumulators against m.
func checkGradShapes(m *MLP, grads []*Dense) error {
	if len(grads) != len(m.layers) {
		return fmt.Errorf("step: %w: %d gradient layers vs %d model layers", ErrDimension, len(grads), len(m.layers))
	}
	for i, l := range m.layers {
		g := grads[i]
		if g == nil || g.W.Rows != l.W.Rows || g.W.Cols != l.W.Cols || len(g.B) != len(l.B) {
			return fmt.Errorf("step: %w: gradient layer %d shape mismatch", ErrDimension, i)
		}
	}
	return nil
}

// TrainBatchWS computes the average gradient of the model over a mini-batch
// into the workspace accumulators — the whole batch at once, as matrices —
// and applies one optimizer step, returning the pre-step mean loss. Losses
// and weights are bit-identical to accumulating GradientsWS example by
// example. The steady-state allocation count is zero.
func TrainBatchWS(ws *Workspace, m *MLP, xs []tensor.Vector, ys []int, opt Optimizer) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmptyBatch
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("train: %w: %d inputs vs %d labels", ErrDimension, len(xs), len(ys))
	}
	total, err := m.gradientsBatch(ws, xs, ys)
	if err != nil {
		return 0, err
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

// TrainBatch computes the average gradient of the model over a mini-batch
// and applies one optimizer step, returning the pre-step mean loss. It
// allocates a workspace per call; loops should use TrainBatchWS.
func TrainBatch(m *MLP, xs []tensor.Vector, ys []int, opt *SGD) (float64, error) {
	return TrainBatchWS(NewWorkspace(m), m, xs, ys, opt)
}

// TrainEpochsWS runs full passes of mini-batch SGD over a dataset, shuffling
// each epoch, and returns the final epoch's mean loss. All per-batch scratch
// state lives in ws, so an epoch loop is allocation-free after warm-up.
func TrainEpochsWS(ws *Workspace, m *MLP, xs []tensor.Vector, ys []int, opt *SGD, epochs, batchSize int, rng *tensor.RNG) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("nn: empty dataset")
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("train epochs: %w: %d inputs vs %d labels", ErrDimension, len(xs), len(ys))
	}
	if epochs <= 0 {
		return 0, errors.New("nn: epochs must be positive")
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	if batchSize > len(xs) {
		// One batch already holds every example; a larger request (it may
		// come off the wire) must not size the batch buffers.
		batchSize = len(xs)
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	bx := make([]tensor.Vector, 0, batchSize)
	by := make([]int, 0, batchSize)
	var lastLoss float64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += batchSize {
			end := start + batchSize
			if end > len(idx) {
				end = len(idx)
			}
			bx = bx[:0]
			by = by[:0]
			for _, i := range idx[start:end] {
				bx = append(bx, xs[i])
				by = append(by, ys[i])
			}
			loss, err := TrainBatchWS(ws, m, bx, by, opt)
			if err != nil {
				return 0, err
			}
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
	}
	return lastLoss, nil
}

// TrainEpochs runs full passes of mini-batch SGD over a dataset, shuffling
// each epoch, and returns the final epoch's mean loss.
func TrainEpochs(m *MLP, xs []tensor.Vector, ys []int, opt *SGD, epochs, batchSize int, rng *tensor.RNG) (float64, error) {
	return TrainEpochsWS(NewWorkspace(m), m, xs, ys, opt, epochs, batchSize, rng)
}

// ModelSimilarity returns the cosine similarity between two models'
// flattened parameter vectors — the MODELSIMILARITY predicate of
// Algorithm 2 used for expert consolidation (§5.2.5).
func ModelSimilarity(a, b *MLP) (float64, error) {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return 0, fmt.Errorf("similarity: %w: %d vs %d", ErrDimension, len(pa), len(pb))
	}
	return tensor.CosineSimilarity(pa, pb), nil
}

// MergeModels returns a new model whose parameters are the weighted average
// of the inputs — the CONSOLIDATEEXPERTS step of Algorithm 2. Weights are
// typically the experts' cohort sizes.
func MergeModels(a, b *MLP, wa, wb float64) (*MLP, error) {
	if wa < 0 || wb < 0 || wa+wb == 0 {
		return nil, fmt.Errorf("nn: invalid merge weights %g, %g", wa, wb)
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return nil, fmt.Errorf("merge: %w: %d vs %d", ErrDimension, len(pa), len(pb))
	}
	merged, err := tensor.WeightedMean([]tensor.Vector{pa, pb}, []float64{wa, wb})
	if err != nil {
		return nil, err
	}
	out := a.Clone()
	if err := out.SetParams(merged); err != nil {
		return nil, err
	}
	return out, nil
}
