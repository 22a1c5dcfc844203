// Package rng provides a deterministic, stream-splittable random number
// generator and the distributions used by the simulator.
//
// Reproducibility requirement: a simulation run is fully determined by one
// 64-bit master seed. Every stochastic component (each client's query
// process, each fading process, the update process, …) draws from its own
// named stream derived from the master seed, so adding or removing one
// component never perturbs the draws seen by another. This is the standard
// variance-reduction discipline for simulation studies (common random
// numbers across algorithm variants).
//
// The core generator is xoshiro256**, seeded through splitmix64; both are
// public-domain algorithms by Blackman and Vigna. math/rand is not used
// because its global ordering and Go-version-dependent algorithms would
// break cross-version determinism.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances a 64-bit state and returns the next output. It is used
// both for seeding xoshiro and for hashing stream names into seed space.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashString folds a string into 64 bits with an FNV-1a pass followed by a
// splitmix64 finalizer. Used to derive per-name stream seeds.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return splitmix64(&h)
}

// Source is a xoshiro256** generator. The zero value is invalid; construct
// with New or Stream. Source is not safe for concurrent use: each goroutine
// (each replication) must own its sources.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from a single 64-bit seed.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitializes the source from seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any seed
	// cannot produce four zero outputs, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Stream derives an independent generator from a master seed and a stream
// name. The same (seed, name) pair always yields the same stream, and
// distinct names yield (statistically) independent streams.
func Stream(seed uint64, name string) *Source {
	return New(seed ^ hashString(name))
}

// SubStream derives an independent generator from this source's seed space
// and an integer index, without consuming any draws from r. It is used to
// give per-client processes their own streams: SubStream(i) for client i.
func (r *Source) SubStream(index uint64) *Source {
	src := r.SubStreamValue(index)
	return &src
}

// SubStreamValue is SubStream returned by value — the exact same generator,
// without the allocation — for callers that store sources inline in
// struct-of-arrays tables (one Source per client/link across a 10⁵-client
// population is worth keeping off the allocator).
func (r *Source) SubStreamValue(index uint64) Source {
	mix := r.s[0] ^ bits.RotateLeft64(r.s[2], 13)
	state := mix + 0x632be59bd9b4e019*(index+1)
	var src Source
	src.Reseed(splitmix64(&state))
	return src
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform float64 in (0, 1): never exactly zero, so it
// is safe to pass to math.Log.
func (r *Source) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(r.Float64Open()) / rate
}

// Uniform returns a uniform value in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, via the Marsaglia polar method.
func (r *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// Lognormal returns exp(Normal(mu, sigma)).
func (r *Source) Lognormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Pareto returns a Pareto-distributed value with the given shape alpha and
// scale xm (minimum value). It panics if alpha <= 0 or xm <= 0.
func (r *Source) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		panic("rng: Pareto needs positive shape and scale")
	}
	return xm / math.Pow(r.Float64Open(), 1/alpha)
}
