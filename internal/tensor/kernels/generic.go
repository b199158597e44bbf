package kernels

import "math"

// This file holds the pure-Go reference implementation of every kernel.
// It is always compiled: it is the only implementation on architectures
// without assembly and under the `purego` build tag, the ForceGeneric
// escape hatch on every architecture, and the ground truth the
// differential tests hold the assembly to.

// gemmPanelKGeneric is the scalar GEMM panel kernel, lifted from the
// tuned internal/tensor blocked engine. Output rows are produced four
// at a time (register tiling) and the contraction is unrolled two deep
// with the two products added left-to-right, so every output element
// keeps one sequential accumulation chain over p — the property the
// bit-identity contract rests on. The reslicing dance before each inner
// loop pins every operand to a provably equal length so the compiler's
// prove pass eliminates all bounds checks from the hot loop.
func gemmPanelKGeneric(out, arows, b []float32, r0, r1, k, n, lda, aoff int, acc bool) {
	i := r0
	for ; i+4 <= r1; i += 4 {
		base := i*lda + aoff
		a0 := arows[base : base+k]
		a1 := arows[base+lda : base+lda+k]
		a2 := arows[base+2*lda : base+2*lda+k]
		a3 := arows[base+3*lda : base+3*lda+k]
		a1 = a1[:len(a0)]
		a2 = a2[:len(a0)]
		a3 = a3[:len(a0)]
		o0 := out[(i+0)*n : (i+0)*n+n]
		o1 := out[(i+1)*n : (i+1)*n+n]
		o2 := out[(i+2)*n : (i+2)*n+n]
		o3 := out[(i+3)*n : (i+3)*n+n]
		if !acc {
			zeroFloats(o0)
			zeroFloats(o1)
			zeroFloats(o2)
			zeroFloats(o3)
		}
		pi := 0
		for ; pi+2 <= len(a0); pi += 2 {
			av00, av01 := a0[pi], a0[pi+1]
			av10, av11 := a1[pi], a1[pi+1]
			av20, av21 := a2[pi], a2[pi+1]
			av30, av31 := a3[pi], a3[pi+1]
			brow0 := b[(pi+0)*n : (pi+0)*n+n]
			brow1 := b[(pi+1)*n : (pi+1)*n+n]
			brow1 = brow1[:len(brow0)]
			u0 := o0[:len(brow0)]
			u1 := o1[:len(brow0)]
			u2 := o2[:len(brow0)]
			u3 := o3[:len(brow0)]
			for j, bv0 := range brow0 {
				bv1 := brow1[j]
				u0[j] = (u0[j] + av00*bv0) + av01*bv1
				u1[j] = (u1[j] + av10*bv0) + av11*bv1
				u2[j] = (u2[j] + av20*bv0) + av21*bv1
				u3[j] = (u3[j] + av30*bv0) + av31*bv1
			}
		}
		for ; pi < len(a0); pi++ {
			av0, av1, av2, av3 := a0[pi], a1[pi], a2[pi], a3[pi]
			brow := b[pi*n : pi*n+n]
			u0 := o0[:len(brow)]
			u1 := o1[:len(brow)]
			u2 := o2[:len(brow)]
			u3 := o3[:len(brow)]
			for j, bv := range brow {
				u0[j] += av0 * bv
				u1[j] += av1 * bv
				u2[j] += av2 * bv
				u3[j] += av3 * bv
			}
		}
	}
	for ; i < r1; i++ {
		base := i*lda + aoff
		arow := arows[base : base+k]
		orow := out[i*n : i*n+n]
		if !acc {
			zeroFloats(orow)
		}
		for pi, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[pi*n : pi*n+n]
			urow := orow[:len(brow)]
			for j, bv := range brow {
				urow[j] += av * bv
			}
		}
	}
}

// clampGeneric is the scalar clamp: two compares per element, stores
// only where a bound is exceeded. NaN fails both compares and is left
// alone.
func clampGeneric(x []float32, limit float32) {
	for i, v := range x {
		if v > limit {
			x[i] = limit
		} else if v < -limit {
			x[i] = -limit
		}
	}
}

// quantize8Generic maps src to uint8 codes against the [lo, lo+1/scale·255]
// range: half-up rounding after clamping, matching the historical
// internal/compress encoder exactly.
func quantize8Generic(dst []byte, src []float32, lo, scale float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		q := (v - lo) * scale
		if q < 0 {
			q = 0
		} else if q > 255 {
			q = 255
		}
		dst[i] = byte(q + 0.5)
	}
}

// F32ToF16Scalar converts one float32 to IEEE 754 binary16 with
// round-to-nearest-even, matching F16C (VCVTPS2PH with RN) and NEON
// FCVT on all finite values, infinities, and zeros. NaNs are quieted
// with the top ten payload bits kept, which matches F16C for quiet
// NaNs; exotic signaling-NaN payloads are implementation-defined.
func F32ToF16Scalar(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits >> 16 & 0x8000)
	abs := bits &^ 0x80000000
	switch {
	case abs >= 0x7F800000: // Inf or NaN
		if abs > 0x7F800000 {
			return sign | 0x7C00 | 0x0200 | uint16(abs>>13&0x03FF)
		}
		return sign | 0x7C00
	case abs < 0x33000000: // below 2⁻²⁵: underflows to zero (ties-to-even)
		return sign
	case abs < 0x38800000: // below 2⁻¹⁴: f16 subnormal
		e := abs >> 23
		m := abs&0x007FFFFF | 0x00800000
		d := 126 - e // 14..24 within this branch
		q := m >> d
		rem := m & (1<<d - 1)
		half := uint32(1) << (d - 1)
		if rem > half || (rem == half && q&1 == 1) {
			q++
		}
		// q == 1024 overflows the subnormal mantissa into exponent 1,
		// which is exactly the smallest normal's encoding.
		return sign | uint16(q)
	default:
		// Normal: round the 23-bit mantissa to 10 bits; a carry out of
		// the mantissa bumps the (re-biased) exponent, and anything at
		// or above the f16 normal ceiling lands in the Inf encoding.
		abs += 0x00000FFF + (abs >> 13 & 1)
		h := (abs >> 13) - (112 << 10)
		if h >= 0x7C00 {
			return sign | 0x7C00
		}
		return sign | uint16(h)
	}
}

// F16ToF32Scalar widens one IEEE 754 binary16 value to float32. Exact,
// including subnormals and infinities; NaN payloads are shifted into
// the f32 mantissa top bits as hardware does.
func F16ToF32Scalar(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x03FF)
	switch {
	case exp == 0x1F: // Inf / NaN
		if mant != 0 {
			// Quiet the NaN, as F16C and NEON widening do.
			return math.Float32frombits(sign | 0x7FC00000 | mant<<13)
		}
		return math.Float32frombits(sign | 0x7F800000)
	case exp != 0: // normal
		return math.Float32frombits(sign | (exp+112)<<23 | mant<<13)
	case mant == 0: // zero
		return math.Float32frombits(sign)
	default: // subnormal: normalize into the f32 exponent range
		e := uint32(113)
		for mant&0x0400 == 0 {
			mant <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (mant&0x03FF)<<13)
	}
}
