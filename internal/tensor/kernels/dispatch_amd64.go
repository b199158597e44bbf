//go:build amd64 && !purego

package kernels

// AVX2 dispatch: feature bits are probed once at init with raw
// CPUID/XGETBV (no external cpu-feature dependency). The GEMM, dot,
// axpy, clamp, int8 and dequantize kernels need AVX2 plus OS-enabled
// YMM state; the f16 converters additionally need F16C. Every assembly
// routine ends in VZEROUPPER so mixed SSE code pays no transition
// penalty.

const asmName = "avx2"

// Vector granularities: each *Vec routine consumes its stride's worth
// of elements per loop iteration, callers pass nv rounded down to a
// multiple and handle the tail in Go.
const (
	gemmJ       = 8  // gemm kernels vectorize 8 output columns
	dotStride   = 32 // dotVec: four 8-lane accumulators per iteration
	axpyStride  = 8
	i8Stride    = 32
	f16Stride   = 8
	dq8Stride   = 8
	clampStride = 8
)

var (
	hasASM      bool
	hasF16ASM   bool
	hasI8ASM    bool
	hasDQ8ASM   bool
	hasClampASM bool
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
}

// cpuid and xgetbv are implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

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
func dotI8Vec(a, b *int8, nv int) int32

//go:noescape
func f16ToF32Vec(dst *float32, src *uint16, nv int)

//go:noescape
func f32ToF16Vec(dst *uint16, src *float32, nv int)

//go:noescape
func dequant8Vec(dst *float32, src *byte, lo, step float32, nv int)
