package tensor

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// The GEMM kernels must be bit-identical to the looped MatVecInto paths
// they replace: tiling may only change which elements are computed
// together, never the per-element accumulation order. Shapes straddle the
// matMulBlock edge on purpose (prime-ish dims larger and smaller than 32)
// so partial tiles are exercised in every loop.

func TestMatMulTransIntoMatchesLoopedMatVecInto(t *testing.T) {
	rng := NewRNG(11)
	for _, shape := range [][3]int{
		{1, 5, 3},    // batch 1
		{7, 5, 9},    // everything below one tile
		{33, 37, 41}, // partial tiles on every edge
		{64, 32, 32}, // exact tile multiples
		{97, 3, 129}, // wide output, skinny k
	} {
		n, k, m := shape[0], shape[1], shape[2]
		a := randMat(rng, n, k)
		b := randMat(rng, m, k)
		dst := randMat(rng, n, m) // pre-filled: kernel must overwrite
		if err := MatMulTransInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		row := NewVector(m)
		for i := 0; i < n; i++ {
			if err := MatVecInto(row, b, a.Row(i)); err != nil {
				t.Fatal(err)
			}
			for j := range row {
				if dst.At(i, j) != row[j] {
					t.Fatalf("%dx%dx%d: dst[%d][%d] = %g, MatVecInto %g",
						n, k, m, i, j, dst.At(i, j), row[j])
				}
			}
		}
	}
}

func TestMatMulIntoMatchesLoopedMatVecInto(t *testing.T) {
	rng := NewRNG(12)
	for _, shape := range [][3]int{
		{1, 4, 2},
		{6, 8, 5},
		{33, 37, 41},
		{32, 64, 32},
	} {
		n, k, m := shape[0], shape[1], shape[2]
		a := randMat(rng, n, k)
		b := randMat(rng, k, m)
		dst := randMat(rng, n, m)
		if err := MatMulInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		// Column j of dst must equal a · b[:,j], computed by MatVecInto.
		col := NewVector(k)
		out := NewVector(n)
		for j := 0; j < m; j++ {
			for kk := 0; kk < k; kk++ {
				col[kk] = b.At(kk, j)
			}
			if err := MatVecInto(out, a, col); err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if dst.At(i, j) != out[i] {
					t.Fatalf("%dx%dx%d: dst[%d][%d] = %g, MatVecInto %g",
						n, k, m, i, j, dst.At(i, j), out[i])
				}
			}
		}
	}
}

// sparsify zeroes roughly half of m's elements, plus one whole row and one
// whole column, so the training kernels' zero-skips meet isolated zeros, runs
// shorter than their four-row groups, and rows with nothing to add.
func sparsify(rng *RNG, m *Matrix) {
	for i := range m.Data {
		if rng.Intn(2) == 0 {
			m.Data[i] = 0
		}
	}
	zeroRow, zeroCol := rng.Intn(m.Rows), rng.Intn(m.Cols)
	for j := 0; j < m.Cols; j++ {
		m.Set(zeroRow, j, 0)
	}
	for i := 0; i < m.Rows; i++ {
		m.Set(i, zeroCol, 0)
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// trainShapes are (batch, layer out, layer in) triples: batch 1, ragged
// batches around the four-row grouping, and one past matMulBlock.
var trainShapes = [][3]int{{1, 5, 3}, {3, 4, 6}, {7, 10, 64}, {16, 64, 128}, {33, 37, 41}}

func TestMatTMulAddIntoMatchesSuccessiveAddOuter(t *testing.T) {
	rng := NewRNG(14)
	for _, shape := range trainShapes {
		n, out, in := shape[0], shape[1], shape[2]
		for _, sparse := range []bool{false, true} {
			delta, acts := randMat(rng, n, out), randMat(rng, n, in)
			if sparse {
				sparsify(rng, delta)
			}
			got := randMat(rng, out, in) // pre-filled: the kernel accumulates
			want := got.Clone()
			if err := MatTMulAddInto(got, delta, acts); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < n; s++ {
				if err := want.AddOuter(1, delta.Row(s), acts.Row(s)); err != nil {
					t.Fatal(err)
				}
			}
			sameBits(t, fmt.Sprintf("%v sparse=%v", shape, sparse), got.Data, want.Data)
		}
	}
}

func TestMatMulIntoMatchesMatTVecIntoPerRow(t *testing.T) {
	rng := NewRNG(15)
	for _, shape := range trainShapes {
		n, out, in := shape[0], shape[1], shape[2]
		for _, sparse := range []bool{false, true} {
			delta, w := randMat(rng, n, out), randMat(rng, out, in)
			if sparse {
				sparsify(rng, delta)
			}
			got := randMat(rng, n, in) // pre-filled: the kernel overwrites
			if err := MatMulInto(got, delta, w); err != nil {
				t.Fatal(err)
			}
			want := NewVector(in)
			for s := 0; s < n; s++ {
				if err := MatTVecInto(want, w, delta.Row(s)); err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("%v sparse=%v row %d", shape, sparse, s), got.Row(s), want)
			}
		}
	}
}

func TestMatMulIntoShapeErrors(t *testing.T) {
	a := NewMatrix(3, 4)
	b := NewMatrix(4, 5)
	bt := NewMatrix(5, 4)
	if err := MatMulInto(NewMatrix(3, 5), a, b); err != nil {
		t.Fatalf("good shapes: %v", err)
	}
	if err := MatMulInto(NewMatrix(3, 5), a, NewMatrix(2, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("inner mismatch: %v", err)
	}
	if err := MatMulInto(NewMatrix(2, 5), a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("bad dst: %v", err)
	}
	if err := MatTMulAddInto(NewMatrix(4, 5), a, NewMatrix(3, 5)); err != nil {
		t.Fatalf("good transposed-accumulate shapes: %v", err)
	}
	if err := MatTMulAddInto(NewMatrix(4, 5), a, NewMatrix(2, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("transposed-accumulate row mismatch: %v", err)
	}
	if err := MatTMulAddInto(NewMatrix(3, 5), a, NewMatrix(3, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("transposed-accumulate bad dst: %v", err)
	}
	if err := MatMulTransInto(NewMatrix(3, 5), a, bt); err != nil {
		t.Fatalf("good trans shapes: %v", err)
	}
	if err := MatMulTransInto(NewMatrix(3, 5), a, NewMatrix(5, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("trans inner mismatch: %v", err)
	}
	if err := MatMulTransInto(NewMatrix(3, 4), a, bt); !errors.Is(err, ErrShape) {
		t.Fatalf("trans bad dst: %v", err)
	}
}

func TestMatMulKernelsAllocateNothing(t *testing.T) {
	rng := NewRNG(13)
	a := randMat(rng, 33, 37)
	b := randMat(rng, 37, 41)
	bt := randMat(rng, 41, 37)
	dst := NewMatrix(33, 41)
	if n := testing.AllocsPerRun(20, func() {
		if err := MatMulInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MatMulInto allocates %v per run, want 0", n)
	}
	acc := NewMatrix(37, 41)
	if n := testing.AllocsPerRun(20, func() {
		if err := MatTMulAddInto(acc, a, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MatTMulAddInto allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := MatMulTransInto(dst, a, bt); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MatMulTransInto allocates %v per run, want 0", n)
	}
}

// BenchmarkMatMulTransInto compares the GEMM kernel against the looped
// per-row MatVecInto it replaces, at the layer shapes batched serving runs.
func BenchmarkMatMulTransInto(b *testing.B) {
	for _, bs := range []int{1, 8, 32, 128} {
		rng := NewRNG(uint64(bs))
		x := randMat(rng, bs, 128)
		w := randMat(rng, 128, 128)
		dst := NewMatrix(bs, 128)
		b.Run(fmt.Sprintf("gemm/batch=%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := MatMulTransInto(dst, x, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("looped/batch=%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			row := NewVector(128)
			for i := 0; i < b.N; i++ {
				for r := 0; r < bs; r++ {
					if err := MatVecInto(row, w, x.Row(r)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
