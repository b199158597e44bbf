//go:build amd64 && !purego

package kernels

import "math"

// AVX2 dispatch: feature bits are probed once at init with raw
// CPUID/XGETBV (no external cpu-feature dependency). The GEMM, dot,
// axpy, clamp, ReLU, max-pool, int8, dequantize and Box-Muller
// kernels need AVX2 plus OS-enabled YMM state; the f16 converters
// additionally need F16C. GEMM panels with n ≥ 16 move up to the AVX-512 tile where the CPU has AVX512F
// and the OS saves the opmask and full ZMM state. Every assembly
// routine ends in VZEROUPPER so mixed SSE code pays no transition
// penalty.

const asmName = "avx2"

// Vector granularities: each *Vec routine consumes its stride's worth
// of elements per loop iteration, callers pass nv rounded down to a
// multiple and handle the tail in Go.
const (
	gemmJ        = 8  // gemm kernels vectorize 8 output columns
	dotStride    = 32 // dotVec: four 8-lane accumulators per iteration
	axpyStride   = 8
	i8Stride     = 32
	f16Stride    = 8
	dq8Stride    = 8
	clampStride  = 8
	outerStride  = 8 // outerStepVec: 8-column strips, four at a time where they fit
	selectStride = 8
	bmStride     = 4 // boxMullerVec: four (u, v) pairs per iteration
)

var (
	hasASM       bool
	hasF16ASM    bool
	hasI8ASM     bool
	hasDQ8ASM    bool
	hasClampASM  bool
	hasOuterASM  bool
	hasSelectASM bool
	hasBMASM     bool
	hasAVX512    bool
)

func init() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx, f16c = 1 << 27, 1 << 28, 1 << 29
	if c1&osxsave == 0 || c1&avx == 0 {
		return
	}
	// XCR0 bits 1|2: OS preserves XMM and YMM state across context
	// switches. Without them AVX registers are not usable.
	xlo, _ := xgetbv()
	if xlo&0x6 != 0x6 {
		return
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	hasASM = b7&avx2 != 0
	hasF16ASM = hasASM && c1&f16c != 0
	hasI8ASM = hasASM
	hasDQ8ASM = hasASM
	hasClampASM = hasASM
	hasOuterASM = hasASM
	hasSelectASM = hasASM
	hasBMASM = hasASM
	// AVX512F is CPUID.7 EBX bit 16. XCR0 must also enable the opmask
	// (bit 5), the upper halves of ZMM0-15 (bit 6) and ZMM16-31 (bit
	// 7) on top of XMM and YMM (bits 1 and 2).
	const avx512f, zmmState = 1 << 16, 0xE6
	hasAVX512 = hasASM && b7&avx512f != 0 && xlo&zmmState == zmmState
}

// cpuid and xgetbv are implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// boxMullerConsts holds every constant boxMullerVec reads, each one
// repeated across the four lanes of a ymm memory operand, at the
// index the assembly's BM(i) macro takes. The values are the standard
// library's own: log_amd64.s's and sin.go's literals, and the 2π and
// 4/π constant expressions Norm and sin.go round to float64.
var boxMullerConsts = func() (c [36][4]float64) {
	for i, v := range [...]float64{
		math.Float64frombits(0x000FFFFFFFFFFFFF), // 0: frexp's mantissa mask
		0.5,                                      // 1: frexp's exponent bits, and hfsq's 0.5
		1 << 52,                                  // 2: 2⁵², whose low mantissa bits carry a small integer
		1<<52 + 0x3FE,                            // 3: 2⁵² plus frexp's exponent bias
		7.07106781186547524401e-01,               // 4: HSqrt2
		1,                                        // 5
		2,                                        // 6
		6.666666666666735130e-01,                 // 7: L1
		3.999999999940941908e-01,                 // 8: L2
		2.857142874366239149e-01,                 // 9: L3
		2.222219843214978396e-01,                 // 10: L4
		1.818357216161805012e-01,                 // 11: L5
		1.531383769920937332e-01,                 // 12: L6
		1.479819860511658591e-01,                 // 13: L7
		6.93147180369123816490e-01,               // 14: Ln2Hi
		1.90821492927058770002e-10,               // 15: Ln2Lo
		-2,                                       // 16
		2 * math.Pi,                              // 17
		4 / math.Pi,                              // 18
		math.Float64frombits(1),                  // 19: integer 1, the parity bit
		math.Float64frombits(1 << 63),            // 20: sign bit
		7.85398125648498535156e-1,                // 21: PI4A
		3.77489470793079817668e-8,                // 22: PI4B
		2.69515142907905952645e-15,               // 23: PI4C
		1.58962301576546568060e-10,               // 24: _sin[0]
		-2.50507477628578072866e-8,               // 25: _sin[1]
		2.75573136213857245213e-6,                // 26: _sin[2]
		-1.98412698295895385996e-4,               // 27: _sin[3]
		8.33333333332211858878e-3,                // 28: _sin[4]
		-1.66666666666666307295e-1,               // 29: _sin[5]
		-1.13585365213876817300e-11,              // 30: _cos[0]
		2.08757008419747316778e-9,                // 31: _cos[1]
		-2.75573141792967388112e-7,               // 32: _cos[2]
		2.48015872888517045348e-5,                // 33: _cos[3]
		-1.38888888888730564116e-3,               // 34: _cos[4]
		4.16666666666665929218e-2,                // 35: _cos[5]
	} {
		c[i] = [4]float64{v, v, v, v}
	}
	return c
}()

// Assembly microkernels (kernels_amd64.s). All take counts that are
// multiples of their stride and carry no alignment requirements.

//go:noescape
func gemmPanel4(o0, o1, o2, o3, a0, a1, a2, a3, b *float32, kb, n, nv int)

//go:noescape
func gemmPanel1(o, a, b *float32, kb, n, nv int)

//go:noescape
func dotVec(a, b *float32, nv int) float32

//go:noescape
func axpyVec(alpha float32, x, y *float32, nv int)

//go:noescape
func clampVec(x *float32, limit float32, nv int)

//go:noescape
func outerStepVec(w, x, dy *float32, rows, batch, in, out, nv int, alpha, limit float32)

//go:noescape
func reluVec(dst, x *float32, nv int)

//go:noescape
func reluGradVec(dx, dy, y *float32, nv int)

//go:noescape
func maxPool2x2Vec(dst, x *float32, units, blocks, span, half, below int)

//go:noescape
func maxPool2x2GradVec(dx, dy, x *float32, units, blocks, span, half, below int)

//go:noescape
func boxMullerVec(dst *float32, u, v *float64, nv int)

//go:noescape
func dotI8Vec(a, b *int8, nv int) int32

//go:noescape
func f16ToF32Vec(dst *float32, src *uint16, nv int)

//go:noescape
func f32ToF16Vec(dst *uint16, src *float32, nv int)

//go:noescape
func dequant8Vec(dst *float32, src *byte, lo, step float32, nv int)
