// Package rng provides a small, deterministic pseudo-random number
// generator used throughout medsplit so that experiments are exactly
// reproducible across runs and platforms.
//
// The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) — a
// 64-bit state generator with a full 2^64 period and excellent statistical
// quality for simulation workloads. It is intentionally not cryptographic:
// it seeds model weights, synthetic datasets and shard assignments, none of
// which need secrecy, and it is an order of magnitude faster than
// crypto/rand.
//
// SkipNorm advances a stream past n Norm draws without computing them,
// so one seeded stream can be consumed by several workers in serial
// order (each starts from a snapshot taken after skipping its
// predecessors' share). It replays Norm's draw pattern: any change to
// how Norm consumes the stream must update SkipNorm with it, and
// TestSkipNormMatchesNorm fails until it does. NormFloat32s, which
// draws Norm's uniforms in blocks and transforms them with one kernel
// call, must track the same draw pattern, and TestNormFloat32sMatchesNorm
// holds it to it.
package rng

import (
	"math"

	"medsplit/internal/tensor/kernels"
)

// RNG is a deterministic SplitMix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; prefer New so the
// seed is explicit.
//
// RNG is not safe for concurrent use; give each goroutine its own
// generator (see Split).
type RNG struct {
	state uint64

	// cachedNorm holds a spare Gaussian variate produced by the
	// Box-Muller transform in Norm, which generates two at a time.
	cachedNorm    float64
	hasCachedNorm bool
}

// New returns a generator seeded with seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Snapshot is the full serializable state of an RNG: restoring it
// resumes the stream exactly where the capture left off, including the
// spare Box-Muller variate. Checkpoint/restore of training sessions
// depends on this being complete — a missing field would silently
// desynchronize a resumed run from its uninterrupted twin.
type Snapshot struct {
	State         uint64
	CachedNorm    float64
	HasCachedNorm bool
}

// Snapshot captures the generator's current state.
func (r *RNG) Snapshot() Snapshot {
	return Snapshot{State: r.state, CachedNorm: r.cachedNorm, HasCachedNorm: r.hasCachedNorm}
}

// Restore overwrites the generator's state with a snapshot.
func (r *RNG) Restore(s Snapshot) {
	r.state = s.State
	r.cachedNorm = s.CachedNorm
	r.hasCachedNorm = s.HasCachedNorm
}

// Split derives an independent generator from r's current state. The
// derived stream is decorrelated from the parent by mixing in a large odd
// constant, so parent and child can be used side by side.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// gamma is SplitMix64's state increment: every draw adds it once.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// mix is SplitMix64's output finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand's contract so misuse fails loudly during development.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method gives an unbiased value
	// without the modulo bias of Uint64() % n.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32

	t := aLo * bLo
	lo32 := t & mask32
	carry := t >> 32

	t = aHi*bLo + carry
	mid := t & mask32
	hi = t >> 32

	t = aLo*bHi + mid
	hi += t >> 32

	lo = t<<32 | lo32
	hi += aHi * bHi
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits → uniform double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Norm returns a standard normal variate (mean 0, stddev 1) via the
// Box-Muller transform.
func (r *RNG) Norm() float64 {
	if r.hasCachedNorm {
		r.hasCachedNorm = false
		return r.cachedNorm
	}
	var u float64
	for u == 0 { // avoid log(0)
		u = r.Float64()
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.cachedNorm = mag * math.Sin(2*math.Pi*v)
	r.hasCachedNorm = true
	return mag * math.Cos(2*math.Pi*v)
}

// SkipNorm advances r exactly as n calls to Norm would, leaving the
// same state, spare variate and all, for a fraction of the cost: the
// state moves by a fixed increment per draw, so each skipped pair's v
// draw is one addition. Only u is drawn for real, because Norm redraws
// a zero u. The last pair goes through Norm itself, so the spare it
// leaves (or the consumed spare's stale value) is the serial loop's.
func (r *RNG) SkipNorm(n int) {
	if n > 0 && r.hasCachedNorm {
		r.hasCachedNorm = false
		n--
	}
	for ; n > 2; n -= 2 {
		for r.Uint64()>>11 == 0 { // Float64() == 0: Norm's u retry
		}
		r.state += gamma // v
	}
	for ; n > 0; n-- {
		r.Norm()
	}
}

// NormFloat32 returns a standard normal variate as float32.
func (r *RNG) NormFloat32() float32 {
	return float32(r.Norm())
}

// normBlock is how many (u, v) pairs NormFloat32s draws per kernel
// call: 4 KB of stack, one synthetic sample's noise in three calls.
const normBlock = 256

// NormFloat32s fills dst with what len(dst) calls to NormFloat32 would
// return, and leaves r where they would, spare variate and all. A
// pending spare comes first. Every pair but the last is then drawn as
// Norm draws it, u redrawn while zero, into blocks on the stack, and
// transformed by kernels.BoxMuller32, which computes Norm's bits four
// pairs at a time. The last pair goes through Norm itself, as in
// SkipNorm, so the spare it leaves (or the consumed spare's stale
// value) is the serial loop's.
func (r *RNG) NormFloat32s(dst []float32) {
	if len(dst) > 0 && r.hasCachedNorm {
		r.hasCachedNorm = false
		dst[0] = float32(r.cachedNorm)
		dst = dst[1:]
	}
	var u, v [normBlock]float64
	for len(dst) > 2 {
		n := min(normBlock, (len(dst)-1)/2)
		s := r.state
		for i := range u[:n] {
			z := uint64(0)
			for z == 0 { // Float64() == 0: Norm's u retry
				s += gamma
				z = mix(s) >> 11
			}
			s += gamma
			u[i] = float64(z) / (1 << 53)
			v[i] = float64(mix(s)>>11) / (1 << 53)
		}
		r.state = s
		kernels.BoxMuller32(dst[:2*n], u[:n], v[:n])
		dst = dst[2*n:]
	}
	for i := range dst {
		dst[i] = float32(r.Norm())
	}
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place.
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Dirichlet fills out with a sample from a symmetric Dirichlet
// distribution with concentration alpha over len(out) categories. It is
// used to draw non-IID label distributions across platforms. Smaller
// alpha → more skew. It panics if alpha <= 0 or len(out) == 0.
func (r *RNG) Dirichlet(alpha float64, out []float64) {
	if alpha <= 0 {
		panic("rng: Dirichlet called with alpha <= 0")
	}
	if len(out) == 0 {
		panic("rng: Dirichlet called with empty output")
	}
	var sum float64
	for i := range out {
		g := r.gamma(alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw (possible for very small alpha): fall back
		// to a single random category to keep probabilities valid.
		out[r.Intn(len(out))] = 1
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// gamma samples Gamma(shape, 1) via Marsaglia & Tsang's method, with the
// standard shape<1 boost.
func (r *RNG) gamma(shape float64) float64 {
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
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
