package tensor

import (
	"encoding/json"
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield identical streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds yielded identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("norm mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("norm variance = %g, want ~1", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make(map[int]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatal("permutation not complete")
	}
}

func TestRNGDirichlet(t *testing.T) {
	r := NewRNG(11)
	for _, alpha := range []float64{0.1, 0.5, 1, 5} {
		v := r.Dirichlet(10, alpha)
		if len(v) != 10 {
			t.Fatalf("len = %d", len(v))
		}
		var sum float64
		for _, x := range v {
			if x < 0 {
				t.Fatalf("negative component %g (alpha=%g)", x, alpha)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("dirichlet sums to %g (alpha=%g)", sum, alpha)
		}
	}
	if r.Dirichlet(0, 1) != nil {
		t.Fatal("k=0 should yield nil")
	}
}

func TestRNGDirichletConcentration(t *testing.T) {
	// Low alpha should concentrate mass; high alpha should flatten.
	r := NewRNG(13)
	maxOf := func(alpha float64) float64 {
		var total float64
		const trials = 200
		for i := 0; i < trials; i++ {
			v := r.Dirichlet(10, alpha)
			var m float64
			for _, x := range v {
				if x > m {
					m = x
				}
			}
			total += m
		}
		return total / trials
	}
	low, high := maxOf(0.1), maxOf(10)
	if low <= high {
		t.Fatalf("alpha=0.1 avg max %g should exceed alpha=10 avg max %g", low, high)
	}
}

func TestRNGCategorical(t *testing.T) {
	r := NewRNG(17)
	counts := make([]int, 3)
	w := Vector{1, 0, 3}
	for i := 0; i < 40000; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight class drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("ratio = %g, want ~3", ratio)
	}
	if got := r.Categorical(Vector{0, 0}); got != 0 {
		t.Fatalf("all-zero weights should return 0, got %d", got)
	}
}

func TestRNGSample(t *testing.T) {
	r := NewRNG(19)
	s := r.Sample(10, 4)
	if len(s) != 4 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate in sample")
		}
		seen[v] = true
	}
	if got := r.Sample(3, 10); len(got) != 3 {
		t.Fatalf("oversized k should return n items, got %d", len(got))
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(23)
	a := r.Split()
	b := r.Split()
	same := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("split RNGs produced identical streams")
	}
}

func TestRNGIntnEdge(t *testing.T) {
	r := NewRNG(29)
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Fatal("non-positive n must return 0")
	}
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(99)
	// Burn through draws of every flavor, ending mid-Box-Muller so the
	// cached gaussian is part of the state.
	for i := 0; i < 17; i++ {
		r.Uint64()
		r.Float64()
	}
	r.Norm()

	st := r.State()
	clone := RestoreRNG(st)
	for i := 0; i < 100; i++ {
		if a, b := r.Norm(), clone.Norm(); a != b {
			t.Fatalf("draw %d diverges: %g vs %g", i, a, b)
		}
		if a, b := r.Uint64(), clone.Uint64(); a != b {
			t.Fatalf("draw %d diverges: %d vs %d", i, a, b)
		}
	}
}

func TestRNGStateJSONRoundTrip(t *testing.T) {
	r := NewRNG(7)
	r.Norm() // populate the gaussian cache
	st := r.State()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded RNGState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded != st {
		t.Fatalf("state round trip: %+v vs %+v", decoded, st)
	}
	clone := RestoreRNG(decoded)
	if clone.Uint64() != r.Uint64() {
		t.Fatal("JSON-restored RNG diverges")
	}
}

func TestRestoreRNGZeroState(t *testing.T) {
	r := RestoreRNG(RNGState{})
	// The all-zero xoshiro state is a fixed point; restore must avoid it.
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("restored zero-state RNG is stuck")
	}
}

// TestSkipNormMatchesDiscardedNorms: skipping n variates leaves the stream —
// cached twin included — exactly where drawing and discarding them does,
// from a fresh stream and from one with a variate pending.
func TestSkipNormMatchesDiscardedNorms(t *testing.T) {
	for _, pending := range []bool{false, true} {
		for _, n := range []int{0, 1, 2, 7, 4096, 12928} {
			drawn, skipped := NewRNG(77), NewRNG(77)
			if pending {
				drawn.Norm()
				skipped.Norm()
			}
			for i := 0; i < n; i++ {
				drawn.Norm()
			}
			skipped.SkipNorm(n)
			if drawn.State() != skipped.State() {
				t.Fatalf("pending=%v n=%d: state %+v after Norm×n, %+v after SkipNorm", pending, n, drawn.State(), skipped.State())
			}
			for i := 0; i < 5; i++ {
				if a, b := drawn.Norm(), skipped.Norm(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("pending=%v n=%d: Norm %d after the skip = %v, want %v", pending, n, i, b, a)
				}
				if a, b := drawn.Uint64(), skipped.Uint64(); a != b {
					t.Fatalf("pending=%v n=%d: Uint64 %d after the skip = %d, want %d", pending, n, i, b, a)
				}
			}
		}
	}
}
