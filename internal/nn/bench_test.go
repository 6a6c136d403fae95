package nn

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// Micro-benchmarks for the training hot path. Run with -benchmem: the
// workspace refactor's contract is allocs/op = 0 for the *Into kernels and
// O(1) per TrainBatch call (independent of batch size and layer widths).

func benchModel(b *testing.B, dims ...int) *MLP {
	b.Helper()
	m, err := NewMLP(dims, tensor.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchBatch(n, in, classes int) ([]tensor.Vector, []int) {
	rng := tensor.NewRNG(2)
	xs := make([]tensor.Vector, n)
	ys := make([]int, n)
	for i := range xs {
		xs[i] = rng.NormVec(in, 0, 1)
		ys[i] = rng.Intn(classes)
	}
	return xs, ys
}

func BenchmarkForward(b *testing.B) {
	m := benchModel(b, 32, 64, 16, 10)
	ws := NewWorkspace(m)
	x := tensor.NewRNG(3).NormVec(32, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ForwardWS(ws, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackward(b *testing.B) {
	m := benchModel(b, 32, 64, 16, 10)
	ws := NewWorkspace(m)
	x := tensor.NewRNG(3).NormVec(32, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.ZeroGrads()
		if _, err := m.GradientsWS(ws, x, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSGDStep(b *testing.B) {
	m := benchModel(b, 32, 64, 16, 10)
	ws := NewWorkspace(m)
	x := tensor.NewRNG(3).NormVec(32, 0, 1)
	ws.ZeroGrads()
	if _, err := m.GradientsWS(ws, x, 3); err != nil {
		b.Fatal(err)
	}
	opt := NewSGD(0.01)
	opt.Momentum = 0.9
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := opt.StepLayers(m, ws.Grads()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdamStep(b *testing.B) {
	m := benchModel(b, 32, 64, 16, 10)
	ws := NewWorkspace(m)
	x := tensor.NewRNG(3).NormVec(32, 0, 1)
	ws.ZeroGrads()
	if _, err := m.GradientsWS(ws, x, 3); err != nil {
		b.Fatal(err)
	}
	opt := NewAdam(0.001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := opt.StepLayers(m, ws.Grads()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainBatch times one optimizer step over a mini-batch at the two
// architectures and the batch sizes the repo benchmark trains with; ns/sample
// is the figure its nn.train_batch_ns_per_sample rung reports.
func BenchmarkTrainBatch(b *testing.B) {
	for _, arch := range benchArchs {
		for _, batch := range []int{8, 16} {
			b.Run(fmt.Sprintf("arch=%d-%d-%d-%d/batch=%d", arch[0], arch[1], arch[2], arch[3], batch), func(b *testing.B) {
				m := benchModel(b, arch...)
				ws := NewWorkspace(m)
				xs, ys := benchBatch(batch, arch[0], arch[len(arch)-1])
				opt := NewSGD(0.01)
				opt.Momentum = 0.9
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := TrainBatchWS(ws, m, xs, ys, opt); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
			})
		}
	}
}

func BenchmarkTrainEpochs(b *testing.B) {
	xs, ys := benchBatch(256, 32, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchModel(b, 32, 64, 16, 10)
		rng := tensor.NewRNG(9)
		opt := NewSGD(0.02)
		opt.Momentum = 0.9
		b.StartTimer()
		if _, err := TrainEpochs(m, xs, ys, opt, 2, 16, rng); err != nil {
			b.Fatal(err)
		}
	}
}
