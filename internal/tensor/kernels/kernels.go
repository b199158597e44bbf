// Package kernels is the architecture-dispatched microkernel layer
// under internal/tensor and internal/compress. It exposes the small set
// of dense primitives every hot loop in the repo reduces to — GEMM
// inner panels, dot/axpy, symmetric clamp, f16↔f32 conversion, int8 dot
// with i32 accumulation, uint8 dequantize — each with
//
//   - a pure-Go reference implementation (always compiled, used on
//     unsupported architectures, under the `purego` build tag, and when
//     tests call ForceGeneric), and
//   - a Go-assembly implementation per supported architecture (AVX2 on
//     amd64, NEON on arm64), selected at init by runtime CPU-feature
//     detection. amd64 has assembly for every kernel but Quantize8;
//     arm64 has it for GemmPanel/GemmPanelK, Dot and Axpy and runs
//     Clamp, DotI8, Dequantize8 and the f16 converters generic.
//
// # Numerical contract
//
// The differential tests in this package and in internal/tensor hold
// every implementation to the retained *Naive references. The contract
// is per kernel:
//
//   - GemmPanel / GemmPanelK: bit-identical to the pure-Go kernel on
//     finite inputs. The assembly vectorizes across output columns
//     (the j dimension), so every output element keeps a single
//     sequential accumulation chain over k in panel order — the same
//     chain the scalar reference executes. On amd64 the assembly uses
//     separate multiply and add instructions because gc does not fuse
//     a*b+c on amd64; on arm64 it uses fused FMLA because gc compiles
//     the scalar reference's `u += a*b` to FMADD. Signed zeros may
//     differ (the scalar single-row path skips a==0 terms), which Go's
//     == treats as equal.
//   - Axpy, Dequantize8, f16/f32 conversions: elementwise, bit-identical
//     to the scalar reference (conversions follow IEEE round-to-nearest-
//     even, matching F16C/NEON hardware on finite values; NaN payloads
//     are implementation-defined).
//   - Clamp: elementwise, bit-identical to the two-compare reference on
//     every input — NaN (payload included), ±Inf, ±0 and subnormals.
//   - DotI8: exact — integer arithmetic is associative, so lane
//     splitting cannot change the result. Inputs must satisfy
//     len ≤ 2¹⁶ to keep the i32 accumulator overflow-free at the
//     int8 extremes.
//   - Dot: reassociation is allowed (the assembly splits the sum across
//     lanes), so results may differ from the sequential reference by a
//     few ULP. Dot is therefore kept out of the bit-critical training
//     paths, which accumulate in float64 or use GemmPanel.
//
// Quantize8 currently has no assembly variant (its clamp/round tail is
// branchy); it lives here so callers quantize through one package and
// pick up vectorization when it lands.
package kernels

import (
	"encoding/binary"
	"sync/atomic"
	"unsafe"
)

// KC is the contraction-dimension panel size GemmPanel blocks on: a
// [KC, n] b-panel stays L2-resident for every n this codebase produces.
// internal/tensor sizes its packing scratch off the same constant.
const KC = 128

// forceGeneric routes every kernel through the pure-Go reference even
// when assembly is available. Tests flip it to prove the fallback and
// the dispatch path agree on the same host; it is not meant to be
// toggled while kernels are running (the flag is read once per call).
var forceGeneric atomic.Bool

// ForceGeneric routes all kernels through the pure-Go reference
// implementations (on=true) or restores normal dispatch (on=false).
// It exists for differential tests and benchmarks.
func ForceGeneric(on bool) { forceGeneric.Store(on) }

// Active reports whether the architecture assembly path is selected
// right now (CPU support detected, not built with `purego`, and not
// forced generic).
func Active() bool { return hasASM && !genericForced() }

func genericForced() bool { return forceGeneric.Load() }

// activeF16 reports whether the f16 conversion assembly is usable
// (amd64 additionally requires F16C; arm64 currently uses the generic
// converters).
func activeF16() bool { return hasF16ASM && !genericForced() }

// activeI8 and activeDQ8 gate the int8-dot and dequantize assembly:
// amd64 ships both; arm64 runs them generic for now (the Go assembler
// lacks the signed-widen and int→float vector conversion mnemonics they
// need, and hand-encoded words are not worth the risk for kernels that
// are O(n) next to the GEMM).
func activeI8() bool { return hasI8ASM && !genericForced() }

func activeDQ8() bool { return hasDQ8ASM && !genericForced() }

// activeClamp gates the clamp assembly: amd64 only, arm64 stays on the
// reference loop like the int8 and dequantize kernels.
func activeClamp() bool { return hasClampASM && !genericForced() }

// Name reports which implementation dispatch selects right now:
// "avx2", "neon" or "generic".
func Name() string {
	if Active() {
		return asmName
	}
	return "generic"
}

// GemmPanelK accumulates one k-panel of a row-major GEMM:
//
//	out[i*n : i*n+n] (+)= a_i · b    for i in [r0, r1)
//
// where a_i = arows[i*lda+aoff : i*lda+aoff+k] and b is a [k, n]
// row-major panel. When acc is false the touched out rows are
// overwritten (zeroed, then accumulated). lda/aoff let callers walk
// packed panels or strided views without reslicing. len(b) must be at
// least k*n.
//
// Every output element is produced by one sequential accumulation
// chain over p=0..k-1, so the result is bit-identical to the scalar
// reference on finite inputs regardless of which implementation runs.
func GemmPanelK(out, arows, b []float32, r0, r1, k, n, lda, aoff int, acc bool) {
	if r1 <= r0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			for i := r0; i < r1; i++ {
				zeroFloats(out[i*n : i*n+n])
			}
		}
		return
	}
	// Pin the full extent of every operand up front: the assembly path
	// does raw pointer walks, so surface a short slice as a panic here
	// rather than as silent corruption.
	_ = out[(r1-1)*n+n-1]
	_ = arows[(r1-1)*lda+aoff+k-1]
	_ = b[(k-1)*n+n-1]
	if Active() && n >= gemmJ {
		gemmPanelKASM(out, arows, b, r0, r1, k, n, lda, aoff, acc)
		return
	}
	gemmPanelKGeneric(out, arows, b, r0, r1, k, n, lda, aoff, acc)
}

// GemmPanel is the KC-blocked form of GemmPanelK: it computes out rows
// [r0,r1) of a full a·b product where the a rows live at
// arows[(i-rowOff)*k:] — rowOff lets the TA path reuse this kernel over
// packed panels — visiting k in KC-sized panels so the b panel a row
// group sweeps stays cache-resident.
func GemmPanel(out, arows, b []float32, r0, r1, k, n, rowOff int, acc bool) {
	if r1 <= r0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			for i := r0; i < r1; i++ {
				zeroFloats(out[i*n : i*n+n])
			}
		}
		return
	}
	for p0 := 0; p0 < k; p0 += KC {
		p1 := min(p0+KC, k)
		GemmPanelK(out, arows, b[p0*n:], r0, r1, p1-p0, n, k, p0-rowOff*k, acc || p0 > 0)
	}
}

// Dot returns the float32 inner product of a and b (panics unless
// len(a) == len(b)). Reassociation is allowed: the assembly splits the
// accumulation across vector lanes, so the result may differ from the
// sequential scalar sum by a few ULP on ill-conditioned inputs.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("kernels: Dot length mismatch")
	}
	var s float32
	i := 0
	if Active() && len(a) >= dotStride {
		nv := len(a) &^ (dotStride - 1)
		s = dotVec(&a[0], &b[0], nv)
		i = nv
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y[i] += alpha*x[i] elementwise (panics unless
// len(x) == len(y)). Bit-identical to the scalar loop: each element is
// independent and the assembly evaluates the same expression.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("kernels: Axpy length mismatch")
	}
	i := 0
	if Active() && len(x) >= axpyStride {
		nv := len(x) &^ (axpyStride - 1)
		axpyVec(alpha, &x[0], &y[0], nv)
		i = nv
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Clamp clamps every element of x into [-limit, limit] in place (panics
// unless limit > 0). Bit-identical to the two-compare reference loop:
// an element inside the range — or NaN, which compares false against
// both bounds — keeps its exact bits; the assembly orders the min/max
// operands so the hardware forwards x, not the bound, in those cases.
func Clamp(x []float32, limit float32) {
	if !(limit > 0) {
		panic("kernels: Clamp with non-positive limit")
	}
	i := 0
	if activeClamp() && len(x) >= clampStride {
		nv := len(x) &^ (clampStride - 1)
		clampVec(&x[0], limit, nv)
		i = nv
	}
	clampGeneric(x[i:], limit)
}

// DotI8 returns the int32 inner product of two int8 vectors (panics
// unless len(a) == len(b)). Exact for len(a) ≤ 65536 — beyond that the
// i32 accumulator could overflow at the int8 extremes.
func DotI8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic("kernels: DotI8 length mismatch")
	}
	var s int32
	i := 0
	if activeI8() && len(a) >= i8Stride {
		nv := len(a) &^ (i8Stride - 1)
		s = dotI8Vec(&a[0], &b[0], nv)
		i = nv
	}
	for ; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// F16ToF32 widens half-precision values to float32 (panics unless
// len(dst) == len(src)). Exact: every f16 value is representable in
// f32, and the scalar converter reproduces hardware semantics including
// subnormals.
func F16ToF32(dst []float32, src []uint16) {
	if len(dst) != len(src) {
		panic("kernels: F16ToF32 length mismatch")
	}
	i := 0
	if activeF16() && len(src) >= f16Stride {
		nv := len(src) &^ (f16Stride - 1)
		f16ToF32Vec(&dst[0], &src[0], nv)
		i = nv
	}
	for ; i < len(src); i++ {
		dst[i] = F16ToF32Scalar(src[i])
	}
}

// F32ToF16 narrows float32 values to half precision with IEEE
// round-to-nearest-even (panics unless len(dst) == len(src)), matching
// F16C hardware on all finite values and infinities; NaN payloads are
// implementation-defined.
func F32ToF16(dst []uint16, src []float32) {
	if len(dst) != len(src) {
		panic("kernels: F32ToF16 length mismatch")
	}
	i := 0
	if activeF16() && len(src) >= f16Stride {
		nv := len(src) &^ (f16Stride - 1)
		f32ToF16Vec(&dst[0], &src[0], nv)
		i = nv
	}
	for ; i < len(src); i++ {
		dst[i] = F32ToF16Scalar(src[i])
	}
}

// F16BytesToF32 widens half-precision values stored as little-endian
// byte pairs (the wire layout internal/compress ships) to float32.
// len(src) must be at least 2*len(dst). Exact, like F16ToF32.
func F16BytesToF32(dst []float32, src []byte) {
	if len(src) < 2*len(dst) {
		panic("kernels: F16BytesToF32 short src")
	}
	i := 0
	if activeF16() && len(dst) >= f16Stride {
		// amd64 and arm64 are little-endian, so the byte pairs are
		// in-memory uint16s and the same conversion assembly applies;
		// its loads carry no alignment requirement.
		nv := len(dst) &^ (f16Stride - 1)
		f16ToF32Vec(&dst[0], (*uint16)(unsafe.Pointer(&src[0])), nv)
		i = nv
	}
	for ; i < len(dst); i++ {
		dst[i] = F16ToF32Scalar(binary.LittleEndian.Uint16(src[2*i:]))
	}
}

// F32ToF16Bytes narrows float32 values to half precision stored as
// little-endian byte pairs with round-to-nearest-even. len(dst) must be
// at least 2*len(src).
func F32ToF16Bytes(dst []byte, src []float32) {
	if len(dst) < 2*len(src) {
		panic("kernels: F32ToF16Bytes short dst")
	}
	i := 0
	if activeF16() && len(src) >= f16Stride {
		nv := len(src) &^ (f16Stride - 1)
		f32ToF16Vec((*uint16)(unsafe.Pointer(&dst[0])), &src[0], nv)
		i = nv
	}
	for ; i < len(src); i++ {
		binary.LittleEndian.PutUint16(dst[2*i:], F32ToF16Scalar(src[i]))
	}
}

// Dequantize8 expands uint8 codes to float32: dst[i] = lo + src[i]*step
// (panics unless len(dst) == len(src)). Bit-identical to the scalar
// loop — the uint8→float32 conversion is exact and the multiply/add
// round identically per element.
func Dequantize8(dst []float32, src []byte, lo, step float32) {
	if len(dst) != len(src) {
		panic("kernels: Dequantize8 length mismatch")
	}
	i := 0
	if activeDQ8() && len(src) >= dq8Stride {
		nv := len(src) &^ (dq8Stride - 1)
		dequant8Vec(&dst[0], &src[0], lo, step, nv)
		i = nv
	}
	for ; i < len(src); i++ {
		dst[i] = lo + float32(src[i])*step
	}
}

// Quantize8 maps float32 values to uint8 codes: clamp((src[i]-lo)*scale
// rounded half-up) to [0,255] (panics unless len(dst) == len(src)).
// Pure Go on every architecture today; quantizing NaN is undefined.
func Quantize8(dst []byte, src []float32, lo, scale float32) {
	if len(dst) != len(src) {
		panic("kernels: Quantize8 length mismatch")
	}
	quantize8Generic(dst, src, lo, scale)
}

func zeroFloats(s []float32) {
	for i := range s {
		s[i] = 0
	}
}
