package tensor

import "math"

// RNG is a deterministic random number generator (splitmix64 seeded
// xoshiro256**). All stochastic components of the system draw through an RNG
// so that entire experiments are reproducible from a single seed.
//
// RNG is not safe for concurrent use; give each goroutine its own via Split.
type RNG struct {
	s [4]uint64

	// cached second Box-Muller variate
	haveGauss bool
	gauss     float64
}

// NewRNG returns an RNG seeded from the given seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new, independent RNG from r; the parent advances.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa0761d6478bd642f)
}

// RNGState is the serializable snapshot of an RNG: the xoshiro256** state
// word plus the cached Box-Muller variate. Restoring it resumes the stream
// at exactly the draw where State was taken, which is what lets a
// checkpointed aggregator replay identically to an uninterrupted run.
type RNGState struct {
	S         [4]uint64 `json:"s"`
	HaveGauss bool      `json:"haveGauss,omitempty"`
	Gauss     float64   `json:"gauss,omitempty"`
}

// State captures the RNG's current position in its stream.
func (r *RNG) State() RNGState {
	return RNGState{S: r.s, HaveGauss: r.haveGauss, Gauss: r.gauss}
}

// RestoreRNG rebuilds an RNG positioned at the given state.
func RestoreRNG(st RNGState) *RNG {
	r := &RNG{s: st.S, haveGauss: st.HaveGauss, gauss: st.Gauss}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). n must be positive; otherwise 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate via Box-Muller.
func (r *RNG) Norm() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	u, v, s := r.polarPoint()
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}

// polarPoint draws uniform points in the square until one falls strictly
// inside the unit disc (and off the origin), returning it with its squared
// radius: the rejection step of the polar Box-Muller method.
func (r *RNG) polarPoint() (u, v, s float64) {
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			return u, v, s
		}
	}
}

// SkipNorm advances the stream exactly as n calls of Norm would, without
// computing the variates nobody reads: a pending cached variate is dropped and
// each further pair costs only its rejection loop. The last pair (or the odd
// variate that leaves its twin pending) is drawn for real, so State — and
// whatever is drawn next, Norm or anything else — is what n calls would have
// left.
func (r *RNG) SkipNorm(n int) {
	if n > 0 && r.haveGauss {
		r.haveGauss = false
		n--
	}
	for ; n > 2; n -= 2 {
		r.polarPoint()
	}
	for ; n > 0; n-- {
		r.Norm()
	}
}

// NormVec fills a fresh vector of length n with N(mu, sigma²) draws.
func (r *RNG) NormVec(n int, mu, sigma float64) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = mu + sigma*r.Norm()
	}
	return v
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices via the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Dirichlet draws from a symmetric Dirichlet(alpha) over k categories using
// Gamma(alpha, 1) variates (Marsaglia-Tsang for alpha >= 1, boosting below).
func (r *RNG) Dirichlet(k int, alpha float64) Vector {
	if k <= 0 {
		return nil
	}
	v := NewVector(k)
	var sum float64
	for i := range v {
		g := r.gamma(alpha)
		v[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw; fall back to uniform.
		v.Fill(1 / float64(k))
		return v
	}
	v.Scale(1 / sum)
	return v
}

// gamma draws Gamma(alpha, 1). alpha must be positive; non-positive alpha
// yields 0.
func (r *RNG) gamma(alpha float64) float64 {
	if alpha <= 0 {
		return 0
	}
	if alpha < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.gamma(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Categorical draws an index from the (not necessarily normalized)
// non-negative weight vector w. An all-zero weight vector yields 0.
func (r *RNG) Categorical(w Vector) int {
	var total float64
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		return 0
	}
	target := r.Float64() * total
	var acc float64
	for i, x := range w {
		if x <= 0 {
			continue
		}
		acc += x
		if target < acc {
			return i
		}
	}
	return len(w) - 1
}

// Sample returns k distinct indices drawn uniformly from [0, n). If k >= n it
// returns all n indices in random order.
func (r *RNG) Sample(n, k int) []int {
	p := r.Perm(n)
	if k >= n {
		return p
	}
	return p[:k]
}
