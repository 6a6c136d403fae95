package tensor

import "fmt"

// Mat×Mat (GEMM) kernels for whole-batch inference and training. Like the
// other in-place kernels, they write into caller-owned destinations and
// allocate nothing. dst must not alias a or b: the loops read the inputs
// while writing dst.
//
// The loops are regrouped for locality, but every destination element still
// accumulates its products in strictly ascending order — the order MatVecInto
// (forward), MatTVecInto (backward delta) and AddOuter (weight gradient) use —
// so a batched forward or backward pass is bit-identical to the per-sample
// loop it replaces. Regrouping only changes WHICH elements are in flight
// together, never the addition order within one element; the parity tests in
// matmul_test.go pin this down to the last bit.

// matMulBlock is the tile edge. 32 rows of a 256-wide f64 operand are
// 64 KiB — the tile of b reused across a whole tile of a stays resident in
// L1/L2 for every architecture this repo trains, while the tight dot-product
// inner loops run over contiguous rows.
const matMulBlock = 32

// MatMulInto computes dst = a·b (a is n×k, b is k×m, dst n×m), overwriting
// dst — the backward shape Δ_prev = Δ·W. Every element accumulates over
// ascending k and zero elements of a contribute nothing, exactly as in
// MatTVecInto, so row i of dst is bit-identical to MatTVecInto(row, b,
// a.Row(i)); for finite b it is also column-wise bit-identical to MatVecInto.
// dst must not alias a or b.
func MatMulInto(dst, a, b *Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("matmul: %w: a %dx%d vs b %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("matmul: %w: dst %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, a.Rows, b.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := range drow {
			drow[j] = 0
		}
		addScaledRows(drow, a.Data[i*a.Cols:], 1, b)
	}
	return nil
}

// MatTMulAddInto accumulates dst += aᵀ·b (a is n×r, b is n×c, dst r×c) — the
// batched weight gradient dW += Δᵀ·A. Every element takes its n additions in
// ascending row order and zero elements of a contribute nothing, so the
// result is bit-identical to dst.AddOuter(1, a.Row(s), b.Row(s)) for s = 0,
// 1, … n-1. dst must not alias a or b.
func MatTMulAddInto(dst, a, b *Matrix) error {
	if a.Rows != b.Rows {
		return fmt.Errorf("mattmuladd: %w: aᵀ %dx%d vs b %dx%d", ErrShape, a.Cols, a.Rows, b.Rows, b.Cols)
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		return fmt.Errorf("mattmuladd: %w: dst %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, a.Cols, b.Cols)
	}
	for i := 0; i < dst.Rows; i++ {
		addScaledRows(dst.Data[i*dst.Cols:(i+1)*dst.Cols], a.Data[i:], a.Cols, b)
	}
	return nil
}

// addScaledRows adds Σ_k x[k·stride]·src.Row(k) to dst, one row after another
// in ascending k, skipping rows whose coefficient is zero. Four surviving
// rows are folded per pass over dst — each element is loaded and stored once
// per four additions — but every element still receives its additions one at
// a time in ascending k, so the sum is the one a row-at-a-time loop produces.
// len(dst) must equal src.Cols and x must reach (src.Rows-1)·stride.
func addScaledRows(dst, x []float64, stride int, src *Matrix) {
	var coef [4]float64
	var rows [4][]float64
	held := 0
	for k := 0; k < src.Rows; k++ {
		v := x[k*stride]
		if v == 0 {
			continue
		}
		coef[held], rows[held] = v, src.Data[k*src.Cols:]
		held++
		if held < 4 {
			continue
		}
		held = 0
		x0, x1, x2, x3 := coef[0], coef[1], coef[2], coef[3]
		r0, r1, r2, r3 := rows[0][:len(dst)], rows[1][:len(dst)], rows[2][:len(dst)], rows[3][:len(dst)]
		for j, d := range dst {
			d += x0 * r0[j]
			d += x1 * r1[j]
			d += x2 * r2[j]
			d += x3 * r3[j]
			dst[j] = d
		}
	}
	for p := 0; p < held; p++ {
		xp, rp := coef[p], rows[p][:len(dst)]
		for j := range dst {
			dst[j] += xp * rp[j]
		}
	}
}

// MatMulTransInto computes dst = a·bᵀ (a is n×k, b is m×k, dst n×m),
// overwriting dst. This is the batched-forward shape: a batch of row-major
// inputs times a Dense layer's row-major W runs each dot product over two
// contiguous rows. Row i of dst is bit-identical to MatVecInto(row, b,
// a.Row(i)) — the per-sample forward kernel — because each dot product
// accumulates in ascending k exactly as MatVecInto does. dst must not alias
// a or b.
func MatMulTransInto(dst, a, b *Matrix) error {
	if a.Cols != b.Cols {
		return fmt.Errorf("matmultrans: %w: a %dx%d vs bᵀ %dx%d", ErrShape, a.Rows, a.Cols, b.Cols, b.Rows)
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		return fmt.Errorf("matmultrans: %w: dst %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, a.Rows, b.Rows)
	}
	// Tiles over (rows of a) × (rows of b): one tile of b rows is reused
	// across a whole tile of a rows while both stay cache-resident. The
	// inner kernel computes four output elements at once — four
	// independent accumulator chains hide the FP-add latency of a single
	// sequential dot product. Each accumulator still sums its k-products
	// in strictly ascending order (unrolling is across OUTPUT elements,
	// never within one), so bit parity with MatVecInto is preserved.
	for i0 := 0; i0 < a.Rows; i0 += matMulBlock {
		i1 := min(i0+matMulBlock, a.Rows)
		for j0 := 0; j0 < b.Rows; j0 += matMulBlock {
			j1 := min(j0+matMulBlock, b.Rows)
			for i := i0; i < i1; i++ {
				arow := a.Data[i*a.Cols : (i+1)*a.Cols]
				drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
				j := j0
				for ; j+3 < j1; j += 4 {
					n := len(arow)
					b0 := b.Data[j*b.Cols:][:n]
					b1 := b.Data[(j+1)*b.Cols:][:n]
					b2 := b.Data[(j+2)*b.Cols:][:n]
					b3 := b.Data[(j+3)*b.Cols:][:n]
					var s0, s1, s2, s3 float64
					for k, av := range arow {
						s0 += av * b0[k]
						s1 += av * b1[k]
						s2 += av * b2[k]
						s3 += av * b3[k]
					}
					drow[j] = s0
					drow[j+1] = s1
					drow[j+2] = s2
					drow[j+3] = s3
				}
				for ; j < j1; j++ {
					brow := b.Data[j*b.Cols:][:len(arow)]
					var s float64
					for k, av := range arow {
						s += av * brow[k]
					}
					drow[j] = s
				}
			}
		}
	}
	return nil
}
