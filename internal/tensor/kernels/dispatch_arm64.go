//go:build arm64 && !purego

package kernels

// NEON dispatch: AdvSIMD is an architectural requirement of AArch64,
// so there is nothing to probe — the GEMM, dot and axpy kernels are
// always available. The clamp, int8-dot, dequantize and f16 conversions
// stay on the generic scalar paths for now: the Go assembler has no
// mnemonics for the signed-widen (SSHLL), int→float (UCVTF) and f16
// (FCVTL/FCVTN) vector conversions they would need, and hand-encoded
// instruction words cannot be differentially tested on amd64-only CI.
//
// FMA note: gc compiles the generic reference's `u += a*b` to FMADD on
// arm64, so the NEON kernels use VFMLA — one fused rounding per
// accumulation step on both paths keeps the dispatch variants
// bit-identical on this architecture, mirroring how the amd64 kernels
// use separate VMULPS+VADDPS to match gc's unfused amd64 scalar code.

const asmName = "neon"

// Vector granularities (128-bit NEON vectors = 4 float32 lanes). The
// f16/i8/dq8/clamp strides are never consulted — their has*ASM gates are
// compile-time false — but must exist for kernels.go to build.
const (
	gemmJ       = 4  // gemm kernels vectorize 4 output columns
	dotStride   = 16 // dotVec: four 4-lane accumulators per iteration
	axpyStride  = 4
	i8Stride    = 1
	f16Stride   = 1
	dq8Stride   = 1
	clampStride = 1
)

const (
	hasASM      = true
	hasF16ASM   = false
	hasI8ASM    = false
	hasDQ8ASM   = false
	hasClampASM = false
)

// Assembly microkernels (kernels_arm64.s). All take counts that are
// multiples of their stride and carry no alignment requirements.

//go:noescape
func gemmPanel4(o0, o1, o2, o3, a0, a1, a2, a3, b *float32, kb, n, nv int)

//go:noescape
func gemmPanel1(o, a, b *float32, kb, n, nv int)

//go:noescape
func dotVec(a, b *float32, nv int) float32

//go:noescape
func axpyVec(alpha float32, x, y *float32, nv int)

// Unreachable on arm64 (their has*ASM gates are compile-time false);
// present only to satisfy the shared call sites.

func clampVec(x *float32, limit float32, nv int) { panic("kernels: no clamp assembly on arm64") }

func dotI8Vec(a, b *int8, nv int) int32 { panic("kernels: no int8 assembly on arm64") }

func f16ToF32Vec(dst *float32, src *uint16, nv int) { panic("kernels: no f16 assembly on arm64") }

func f32ToF16Vec(dst *uint16, src *float32, nv int) { panic("kernels: no f16 assembly on arm64") }

func dequant8Vec(dst *float32, src *byte, lo, step float32, nv int) {
	panic("kernels: no dequantize assembly on arm64")
}
