package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestVectorDot(t *testing.T) {
	tests := []struct {
		name    string
		v, w    Vector
		want    float64
		wantErr bool
	}{
		{name: "basic", v: Vector{1, 2, 3}, w: Vector{4, 5, 6}, want: 32},
		{name: "zero length", v: Vector{}, w: Vector{}, want: 0},
		{name: "mismatch", v: Vector{1}, w: Vector{1, 2}, wantErr: true},
		{name: "negatives", v: Vector{-1, 1}, w: Vector{1, -1}, want: -2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.v.Dot(tt.w)
			if tt.wantErr {
				if err == nil {
					t.Fatal("expected error, got nil")
				}
				if !errors.Is(err, ErrShape) {
					t.Fatalf("expected ErrShape, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Fatalf("dot = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestVectorNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("norm = %g, want 5", got)
	}
	if got := (Vector{}).Norm(); got != 0 {
		t.Fatalf("empty norm = %g, want 0", got)
	}
}

func TestVectorAddSubScaleAxpy(t *testing.T) {
	v := Vector{1, 2, 3}
	if err := v.Add(Vector{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 2 || v[2] != 4 {
		t.Fatalf("add result %v", v)
	}
	if err := v.Sub(Vector{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 0 || v[2] != 2 {
		t.Fatalf("sub result %v", v)
	}
	v.Scale(3)
	if v[2] != 6 {
		t.Fatalf("scale result %v", v)
	}
	if err := v.Axpy(0.5, Vector{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 1 {
		t.Fatalf("axpy result %v", v)
	}
	if err := v.Add(Vector{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("add shape error = %v", err)
	}
	if err := v.Sub(Vector{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("sub shape error = %v", err)
	}
	if err := v.Axpy(1, Vector{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("axpy shape error = %v", err)
	}
}

func TestVectorArgMax(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want int
	}{
		{name: "empty", v: nil, want: -1},
		{name: "single", v: Vector{7}, want: 0},
		{name: "middle", v: Vector{1, 9, 3}, want: 1},
		{name: "tie lowest index", v: Vector{5, 5, 5}, want: 0},
		{name: "negative values", v: Vector{-3, -1, -2}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.ArgMax(); got != tt.want {
				t.Fatalf("argmax = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity(Vector{1, 0}, Vector{1, 0}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("parallel = %g", got)
	}
	if got := CosineSimilarity(Vector{1, 0}, Vector{0, 1}); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("orthogonal = %g", got)
	}
	if got := CosineSimilarity(Vector{1, 0}, Vector{-1, 0}); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("antiparallel = %g", got)
	}
	if got := CosineSimilarity(Vector{0, 0}, Vector{1, 0}); got != 0 {
		t.Fatalf("zero vector = %g", got)
	}
	if got := CosineSimilarity(Vector{1}, Vector{1, 2}); !math.IsNaN(got) {
		t.Fatalf("shape mismatch = %g, want NaN", got)
	}
}

func TestMeanAndWeightedMean(t *testing.T) {
	vs := []Vector{{1, 2}, {3, 4}}
	m, err := Mean(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m[0], 2, 1e-12) || !almostEqual(m[1], 3, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if _, err := Mean(nil); err == nil {
		t.Fatal("expected error for empty mean")
	}
	if _, err := Mean([]Vector{{1}, {1, 2}}); !errors.Is(err, ErrShape) {
		t.Fatalf("mean shape error = %v", err)
	}

	wm, err := WeightedMean(vs, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(wm[0], 1.5, 1e-12) {
		t.Fatalf("weighted mean = %v", wm)
	}
	if _, err := WeightedMean(vs, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("weighted mean count mismatch = %v", err)
	}
	if _, err := WeightedMean(vs, []float64{0, 0}); err == nil {
		t.Fatal("expected zero-weight error")
	}
	if _, err := WeightedMean(vs, []float64{-1, 2}); err == nil {
		t.Fatal("expected negative-weight error")
	}
}

func TestDistance(t *testing.T) {
	if got := Distance(Vector{0, 0}, Vector{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("distance = %g", got)
	}
	if got := SquaredDistance(Vector{1}, Vector{1, 2}); !math.IsNaN(got) {
		t.Fatalf("mismatched squared distance = %g, want NaN", got)
	}
}

// clampVec maps arbitrary quick-generated floats into [-1e6, 1e6] so the
// identities under test are not confounded by overflow to ±Inf.
func clampVec(a []float64) Vector {
	v := make(Vector, len(a))
	for i, x := range a {
		switch {
		case math.IsNaN(x):
			v[i] = 0
		case x > 1e6:
			v[i] = 1e6
		case x < -1e6:
			v[i] = -1e6
		default:
			v[i] = x
		}
	}
	return v
}

func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(a, b [8]float64) bool {
		v, w := clampVec(a[:]), clampVec(b[:])
		dot := v.MustDot(w)
		bound := v.Norm() * w.Norm()
		return math.Abs(dot) <= bound*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	f := func(a, b, c [6]float64) bool {
		x, y, z := clampVec(a[:]), clampVec(b[:]), clampVec(c[:])
		lhs := Distance(x, z)
		rhs := Distance(x, y) + Distance(y, z)
		return lhs <= rhs*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorCloneIsDeep(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("clone aliases original storage")
	}
}

func TestHashBitsDistinguishesOrder(t *testing.T) {
	if (Vector{1, 2}).HashBits() == (Vector{2, 1}).HashBits() {
		t.Fatal("hash must depend on element order")
	}
	if Vector(nil).HashBits() != (Vector{}).HashBits() {
		t.Fatal("nil and empty must hash alike")
	}
	if (Vector{}).HashBits() == (Vector{0}).HashBits() {
		t.Fatal("hash must depend on length")
	}
	v := NewRNG(1).NormVec(32, 0, 1)
	if v.HashBits() != v.Clone().HashBits() {
		t.Fatal("equal bits must hash equal")
	}
}

// TestHashBitsSpreads is the quality floor for both users: near-identical
// inputs (one element nudged by one ulp, or differing only in a sign bit) must
// not collide, and the top byte — what places a key on the gateway's ring —
// must use its whole range.
func TestHashBitsSpreads(t *testing.T) {
	base := NewRNG(2).NormVec(32, 0, 1)
	seen := map[uint64]bool{base.HashBits(): true}
	top := map[uint64]bool{}
	for i := range base {
		for _, nudge := range []float64{math.Nextafter(base[i], math.Inf(1)), math.Nextafter(base[i], math.Inf(-1)), -base[i], float64(i)} {
			v := base.Clone()
			v[i] = nudge
			h := v.HashBits()
			if seen[h] {
				t.Fatalf("collision after changing element %d to %v", i, nudge)
			}
			seen[h] = true
			top[h>>56] = true
		}
	}
	if len(top) < 48 {
		t.Fatalf("128 near-identical inputs reached only %d distinct top bytes", len(top))
	}
}

// hashBytewise is the FNV-1a loop HashBits replaced (eight multiplies per
// element), kept here as BenchmarkHashBits' comparison.
func hashBytewise(x Vector) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range x {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}

var hashSink uint64

func BenchmarkHashBits(b *testing.B) {
	x := NewRNG(3).NormVec(32, 0, 1)
	b.Run("wordwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashSink = x.HashBits()
		}
	})
	b.Run("bytewise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashSink = hashBytewise(x)
		}
	})
}
