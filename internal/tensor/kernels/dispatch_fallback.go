//go:build purego || (!amd64 && !arm64)

package kernels

// Pure-Go build: no assembly is linked. hasASM is a compile-time false
// so the dispatch branches fold away and every kernel runs the generic
// reference; the stubs below exist only to satisfy the call sites and
// are unreachable.

const asmName = "generic"

const (
	gemmJ        = 1
	dotStride    = 1
	axpyStride   = 1
	i8Stride     = 1
	f16Stride    = 1
	dq8Stride    = 1
	clampStride  = 1
	outerStride  = 1
	selectStride = 1
	bmStride     = 1
	bmzStride    = 1
)

const (
	hasASM       = false
	hasF16ASM    = false
	hasI8ASM     = false
	hasDQ8ASM    = false
	hasClampASM  = false
	hasOuterASM  = false
	hasSelectASM = false
	hasBMASM     = false
	hasAVX512    = false
	hasBMAVX512  = false
)

func gemmPanelKASM(out, arows, b []float32, r0, r1, k, n, lda, aoff int, acc bool) {
	panic("kernels: no assembly in this build")
}

func gemmPanelKAVX512(out, arows, b []float32, r0, r1, k, n, lda, aoff int, acc bool) {
	panic("kernels: no assembly in this build")
}

func gemmTableAVX512(out, a, b []float32, off []int, bias []float32, m, k, n int) {
	panic("kernels: no assembly in this build")
}

func dotVec(a, b *float32, nv int) float32 { panic("kernels: no assembly in this build") }

func axpyVec(alpha float32, x, y *float32, nv int) { panic("kernels: no assembly in this build") }

func clampVec(x *float32, limit float32, nv int) { panic("kernels: no assembly in this build") }

func outerStepVec(w, x, dy *float32, rows, batch, in, out, nv int, alpha, limit float32) {
	panic("kernels: no assembly in this build")
}

func reluVec(dst, x *float32, nv int) { panic("kernels: no assembly in this build") }

func reluGradVec(dx, dy, y *float32, nv int) { panic("kernels: no assembly in this build") }

func maxPool2x2Vec(dst, x *float32, units, blocks, span, half, below int) {
	panic("kernels: no assembly in this build")
}

func maxPool2x2GradVec(dx, dy, x *float32, units, blocks, span, half, below int) {
	panic("kernels: no assembly in this build")
}

func boxMullerVec(dst *float32, u, v *float64, nv int) {
	panic("kernels: no assembly in this build")
}

func boxMullerSplitMixVec(dst *float32, s uint64, np int) int {
	panic("kernels: no assembly in this build")
}

func dotI8Vec(a, b *int8, nv int) int32 { panic("kernels: no assembly in this build") }

func f16ToF32Vec(dst *float32, src *uint16, nv int) { panic("kernels: no assembly in this build") }

func f32ToF16Vec(dst *uint16, src *float32, nv int) { panic("kernels: no assembly in this build") }

func dequant8Vec(dst *float32, src *byte, lo, step float32, nv int) {
	panic("kernels: no assembly in this build")
}
