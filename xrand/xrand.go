// Package xrand provides a small, fast, deterministic and splittable
// pseudo-random number generator used throughout the simulator.
//
// Determinism matters here: every experiment table in EXPERIMENTS.md must
// be bit-reproducible from a recorded seed, and the concurrent overlay
// simulator needs an independent stream per peer so goroutine scheduling
// cannot perturb the random choices. The generator is xoshiro256**
// seeded via splitmix64 (the reference seeding procedure), with a Split
// operation that derives statistically independent child streams.
package xrand

import "math"

// Stream is a deterministic xoshiro256** PRNG. It is NOT safe for
// concurrent use; use Split to derive one stream per goroutine.
type Stream struct {
	s [4]uint64
}

// splitmix64 advances the seed state and returns the next 64-bit output.
// It is used both for seeding xoshiro and for deriving child streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded deterministically from seed.
func New(seed uint64) *Stream {
	var st Stream
	st.Reseed(seed)
	return &st
}

// Reseed resets r in place to the state New(seed) would produce. It lets
// per-node construction loops reuse one stack-allocated Stream instead
// of heap-allocating a fresh generator per node.
func (r *Stream) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits of the stream.
func (r *Stream) Uint64() uint64 {
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

// Split derives a new, statistically independent stream from r without
// disturbing r's own future output beyond consuming one value.
func (r *Stream) Split() *Stream {
	seed := r.Uint64()
	return New(seed ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniform float64 in [0,1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in the open interval (0,1),
// useful where a logarithm or division by the variate follows.
func (r *Stream) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0,n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n // (2^64 - n) mod n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1,
// via inversion.
func (r *Stream) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}

// Perm returns a random permutation of [0,n) (Fisher–Yates).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomises the order of n elements using the provided swap
// function (Fisher–Yates, back to front).
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// LogUniform returns a variate with density proportional to 1/x on
// [lo, hi], the continuous harmonic distribution at the heart of both
// Kleinberg's construction and the paper's Models: sampling a long-range
// mass-offset m with P(m) ∝ 1/m over the eligible range.
// It panics unless 0 < lo < hi.
func (r *Stream) LogUniform(lo, hi float64) float64 {
	if !(lo > 0) || !(hi > lo) {
		panic("xrand: LogUniform requires 0 < lo < hi")
	}
	return lo * math.Exp(r.Float64()*math.Log(hi/lo))
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	return r.Float64() < p
}
