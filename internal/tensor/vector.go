// Package tensor provides the dense linear-algebra primitives used by the
// neural-network, statistics, and clustering layers: float64 vectors and
// matrices, a small set of BLAS-level kernels, and a deterministic random
// number generator.
//
// Everything in this package is written against plain slices so callers can
// interoperate with it without conversions, and every routine is
// deterministic given a seeded RNG.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape indicates that the dimensions of the operands do not agree.
var ErrShape = errors.New("tensor: shape mismatch")

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// HashBits returns a 64-bit hash of v's IEEE-754 bit patterns: one
// multiply-xorshift step per element and one more to finish, so the cost is a
// multiply per float rather than per byte. It is order-sensitive, identical
// across processes, and hashes nil and empty alike; values that compare equal
// but differ in bits (+0 and -0) hash apart. Not cryptographic — it keys the
// serving tier's route cache and places requests on the gateway's hash ring.
func (v Vector) HashBits() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range v {
		h = (h ^ math.Float64bits(x)) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>29
}

// Dot returns the inner product of v and w.
// It returns ErrShape if the lengths differ.
func (v Vector) Dot(w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("dot: %w: %d vs %d", ErrShape, len(v), len(w))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s, nil
}

// MustDot is Dot for equal-length vectors the caller has already validated.
// Mismatched lengths yield NaN rather than a panic.
func (v Vector) MustDot(w Vector) float64 {
	s, err := v.Dot(w)
	if err != nil {
		return math.NaN()
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Add adds w into v element-wise in place.
func (v Vector) Add(w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("add: %w: %d vs %d", ErrShape, len(v), len(w))
	}
	for i := range v {
		v[i] += w[i]
	}
	return nil
}

// Sub subtracts w from v element-wise in place.
func (v Vector) Sub(w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("sub: %w: %d vs %d", ErrShape, len(v), len(w))
	}
	for i := range v {
		v[i] -= w[i]
	}
	return nil
}

// Scale multiplies every element of v by a in place.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Axpy computes v += a*w in place.
func (v Vector) Axpy(a float64, w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("axpy: %w: %d vs %d", ErrShape, len(v), len(w))
	}
	for i := range v {
		v[i] += a * w[i]
	}
	return nil
}

// Fill sets every element of v to a.
func (v Vector) Fill(a float64) {
	for i := range v {
		v[i] = a
	}
}

// Sum returns the sum of all elements.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// ArgMax returns the index of the largest element, or -1 for an empty vector.
// Ties resolve to the lowest index.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best, bestIdx := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bestIdx = v[i], i
		}
	}
	return bestIdx
}

// SquaredDistance returns ||v-w||² or NaN when shapes differ.
func SquaredDistance(v, w Vector) float64 {
	if len(v) != len(w) {
		return math.NaN()
	}
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// Distance returns the Euclidean distance between v and w.
func Distance(v, w Vector) float64 {
	return math.Sqrt(SquaredDistance(v, w))
}

// CosineSimilarity returns the cosine of the angle between v and w.
// Zero-norm inputs yield 0.
func CosineSimilarity(v, w Vector) float64 {
	if len(v) != len(w) {
		return math.NaN()
	}
	var dot, nv, nw float64
	for i := range v {
		dot += v[i] * w[i]
		nv += v[i] * v[i]
		nw += w[i] * w[i]
	}
	if nv == 0 || nw == 0 {
		return 0
	}
	return dot / (math.Sqrt(nv) * math.Sqrt(nw))
}

// Mean returns the element-wise mean of the given vectors.
// It returns ErrShape when the vectors disagree in length, and an error when
// the input is empty.
func Mean(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("tensor: mean of empty vector set")
	}
	n := len(vs[0])
	out := NewVector(n)
	for _, v := range vs {
		if len(v) != n {
			return nil, fmt.Errorf("mean: %w: %d vs %d", ErrShape, len(v), n)
		}
		for i, x := range v {
			out[i] += x
		}
	}
	out.Scale(1 / float64(len(vs)))
	return out, nil
}

// WeightedMean returns Σ wᵢ·vᵢ / Σ wᵢ. Weights must be non-negative and sum
// to a positive value.
func WeightedMean(vs []Vector, weights []float64) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("tensor: weighted mean of empty vector set")
	}
	if len(vs) != len(weights) {
		return nil, fmt.Errorf("weighted mean: %w: %d vectors vs %d weights", ErrShape, len(vs), len(weights))
	}
	n := len(vs[0])
	out := NewVector(n)
	var total float64
	for j, v := range vs {
		if len(v) != n {
			return nil, fmt.Errorf("weighted mean: %w: %d vs %d", ErrShape, len(v), n)
		}
		w := weights[j]
		if w < 0 {
			return nil, fmt.Errorf("tensor: negative weight %g at index %d", w, j)
		}
		total += w
		for i, x := range v {
			out[i] += w * x
		}
	}
	if total <= 0 {
		return nil, errors.New("tensor: weights sum to zero")
	}
	out.Scale(1 / total)
	return out, nil
}
