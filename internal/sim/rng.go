package sim

import "math"

// RNG is a small, fast, deterministic random source (xoshiro256**).
// It is not safe for concurrent use; each simulation owns one.
//
// The standard library's math/rand is avoided so that the generator's
// sequence is pinned by this package rather than by the Go release.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which
// guarantees a well-mixed nonzero state for any seed including 0.
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
	return r
}

// Seed resets r, in place, to the state NewRNG(seed) starts from, so
// owners can hold a generator by value.
func (r *RNG) Seed(seed uint64) { *r = *NewRNG(seed) }

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

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill;
	// simple rejection keeps the distribution exact.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("sim: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// DurationRange returns a uniform duration in [lo, hi] inclusive.
func (r *RNG) DurationRange(lo, hi Duration) Duration {
	if hi < lo {
		panic("sim: DurationRange with hi < lo")
	}
	if hi == lo {
		return lo
	}
	span := uint64(hi - lo + 1)
	return lo + Duration(r.Uint64()%span)
}

// Exp returns an exponentially distributed duration with the given mean.
func (r *RNG) Exp(mean Duration) Duration {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	d := Duration(-float64(mean) * math.Log(u))
	if d < 0 {
		d = 0
	}
	return d
}

// Perm returns a random permutation of [0, n).
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

// Fork returns a new RNG whose stream is independent of r's future
// output, derived from r's current state. Useful for giving each
// workload sequence its own stream.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}
