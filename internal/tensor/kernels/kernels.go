// Package kernels is the architecture-dispatched microkernel layer
// under internal/tensor and internal/compress. It exposes the small set
// of dense primitives every hot loop in the repo reduces to — GEMM
// inner panels, dot/axpy, symmetric clamp, the fused SGD outer step,
// ReLU and its gradient, the 2×2 max pool and its gradient, f16↔f32
// conversion, int8 dot with i32 accumulation, uint8 dequantize, and
// the Box-Muller transform behind every Gaussian draw — each with
//
//   - a pure-Go reference implementation (always compiled, used on
//     unsupported architectures, under the `purego` build tag, and when
//     tests pin it with UseArm("generic")), and
//   - a Go-assembly implementation per supported architecture (AVX2 on
//     amd64, NEON on arm64), selected at init by runtime CPU-feature
//     detection. amd64 has assembly for every kernel but Quantize8;
//     arm64 has it for GemmPanel/GemmPanelK, Dot and Axpy and runs
//     Clamp, OuterStep, ReLU, ReLUGrad, MaxPool2x2, MaxPool2x2Grad,
//     DotI8, Dequantize8, the f16 converters and BoxMuller32 generic.
//   - on amd64 hosts with AVX-512, a third GEMM arm: one zmm tile,
//     selected at init when CPUID.7 EBX bit 16 (AVX512F) is set and
//     XCR0 enables XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state (bits
//     1, 2, 5, 6 and 7). Outputs with n ≥ 16 run eight rows at a time
//     through an 8-row × 16-column tile (eight accumulators) for every
//     whole 16-column strip. n < 16, the last < 16 columns and the
//     rows past the last whole tile stay on the AVX2 kernels, and
//     every non-GEMM kernel runs its AVX2 code under this arm. A second
//     form of the tile reads its b rows through an offset table and
//     adds a bias in its store (GemmTable); it has no AVX2 or NEON
//     form, and outputs it cannot tile run its pure-Go reference.
//     The arm also names the noise kernel, BoxMullerSplitMix32, where
//     the CPU has AVX512DQ too (CPUID.7 EBX bit 17): it draws
//     SplitMix64 uniforms in zmm registers, which needs DQ's 64-bit
//     multiply VPMULLQ and its int64→float64 conversion VCVTQQ2PD
//     (AVX2 has neither), and runs BoxMuller32's AVX2 operation
//     sequence on eight pairs. Without DQ, and on every other arm, it
//     writes nothing and the caller takes the BoxMuller32 path.
//
// UseArm pins any one arm Arms() lists, so the differential tests and
// benchmarks run every arm of the host inside one binary.
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
//     the scalar reference's `u += a*b` to FMADD. The scalar single-row
//     path skips a==0 terms, and that skip changes no bit on finite
//     inputs. The skipped product is ±0, and adding ±0 leaves every
//     accumulator except −0 unchanged. An accumulator that starts at
//     +0 (acc=false zeroes it) never becomes −0, because a float32 sum
//     is −0 only when both addends are −0. So the skip is harmless
//     whichever operand plays a: internal/tensor's channel-major conv
//     engine passes the kernel matrix or the column matrix there, where
//     the row-major GEMMs passed the gradient. The one exception is a
//     caller that passes acc=true over a −0 it stored itself.
//     The AVX-512 tile widens the vectors, not the chain: lanes are
//     still output columns, each output still adds its products one at
//     a time in panel order with separate VMULPS and VADDPS. With
//     acc=false it starts the chains from +0 in registers (VPXORD)
//     instead of a zeroed and reloaded output row. That is the same
//     start: +0 + x is x for every x but −0, and a −0 first product
//     becomes +0 under both.
//   - GemmTable: bit-identical to GemmPanel over the materialised b
//     followed by out + bias, by the same argument: the tile's chains
//     are gemmTile8x16's, and the bias is one VADDPS after the last
//     product with the chain as the first source. Its pure-Go
//     reference has no zero skip.
//   - Axpy, Dequantize8, f16/f32 conversions: elementwise, bit-identical
//     to the scalar reference (conversions follow IEEE round-to-nearest-
//     even, matching F16C/NEON hardware on finite values; NaN payloads
//     are implementation-defined).
//   - Clamp: elementwise, bit-identical to the two-compare reference on
//     every input — NaN (payload included), ±Inf, ±0 and subnormals.
//   - OuterStep: bit-identical to the zero, GEMM-accumulate, Clamp and
//     Axpy sequence it replaces (see its doc).
//   - ReLU, ReLUGrad, MaxPool2x2, MaxPool2x2Grad: elementwise selects,
//     bit-identical to the scalar select loops on every input — NaN
//     (payload included), ±Inf, ±0 and subnormals. The pool's max is
//     a strict > chain over (0,0), (0,1), (1,0), (1,1), so the first
//     of equal maxima wins and a NaN wins only at (0,0). The AVX2 code
//     gets those bits from operand order: MAXPS returns its second
//     source unless the first compares greater, so the candidate goes
//     first and the running max (or ReLU's +0) second. arm64 keeps the
//     scalar loops: FMAX returns NaN when either operand is NaN and
//     FMAXNM returns the number, so neither picks the survivor the
//     strict > select does.
//   - DotI8: exact — integer arithmetic is associative, so lane
//     splitting cannot change the result. Inputs must satisfy
//     len ≤ 2¹⁶ to keep the i32 accumulator overflow-free at the
//     int8 extremes.
//   - BoxMuller32 and BoxMullerSplitMix32: bit-identical to rng.Norm's
//     expressions, and so to NormFloat32, on Norm's inputs (u in
//     (0, 1), v in [0, 1)); BoxMullerSplitMix32 draws those inputs as
//     Float64 does, exactly, and stops before a block with a zero u. On
//     amd64 those call math.Log, which is the assembly in
//     math/log_amd64.s, the SQRTSD intrinsic, and sin.go's Sin and
//     Cos. The AVX2 code repeats each of them operation for operation
//     on four pairs (eight in the zmm kernel, whose only additions to
//     the sequence are a zeroing masked move for the 0-or-1 vector
//     the ymm code gets from a compare mask, and VBLENDMPD for
//     VBLENDVPD), with separate VMULPD and VADDPD: gc never fuses
//     a*b+c on amd64, so the standard library rounds every product
//     and every sum, and one FMA would round differently. arm64 runs
//     the generic arm. There math.Log is log.go, and gc fuses
//     multiply-adds in log.go and sin.go where it chooses to, so a
//     NEON copy would have to follow the compiler's choices.
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
	"slices"
	"sync/atomic"
	"unsafe"
)

// KC is the contraction-dimension panel size GemmPanel blocks on: a
// [KC, n] b-panel stays L2-resident for every n this codebase produces.
// internal/tensor sizes its packing scratch off the same constant.
const KC = 128

// zmmMinN is the narrowest output the AVX-512 arm takes: one 16-lane
// zmm strip. Narrower outputs stay on the AVX2 kernels.
const zmmMinN = 16

// pinned is the arm UseArm selected: pinAuto (normal dispatch), pinASM
// (the AVX2/NEON arm, skipping AVX-512) or pinGeneric (the pure-Go
// reference for every kernel). Tests and benchmarks set it to run each
// arm of the host in one binary; it is not meant to change while
// kernels are running (it is read once per call).
var pinned atomic.Int32

const (
	pinAuto int32 = iota
	pinASM
	pinGeneric
)

// Arms lists the implementations this host and build can run, in
// dispatch preference order; the last is always "generic". An
// AVX-512 host lists "avx512", "avx2", "generic".
func Arms() []string {
	arms := make([]string, 0, 3)
	if hasAVX512 {
		arms = append(arms, "avx512")
	}
	if hasASM {
		arms = append(arms, asmName)
	}
	return append(arms, "generic")
}

// UseArm pins dispatch to the named arm, one of Arms(), or restores
// normal dispatch for "". Pinning "avx2" on an AVX-512 host is the way
// to run the AVX2 GEMM there; "generic" routes every kernel through
// the pure-Go reference. It exists for differential tests and
// benchmarks and must not change while kernels are running.
func UseArm(name string) {
	if name != "" && !slices.Contains(Arms(), name) {
		panic("kernels: arm " + name + " is not available on this host")
	}
	// A tagless switch, because under `purego` asmName is "generic".
	pin := pinAuto
	switch {
	case name == "generic":
		pin = pinGeneric
	case name == asmName:
		pin = pinASM
	}
	pinned.Store(pin)
}

// Active reports whether the architecture assembly path is selected
// right now (CPU support detected, not built with `purego`, and not
// pinned generic).
func Active() bool { return hasASM && !genericForced() }

// activeAVX512 reports whether GEMM panels with n ≥ zmmMinN take the
// AVX-512 tile right now.
func activeAVX512() bool { return hasAVX512 && pinned.Load() == pinAuto }

func genericForced() bool { return pinned.Load() == pinGeneric }

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

// activeOuter gates the OuterStep assembly: amd64 only. Elsewhere the
// generic loop runs, and gc's fused multiply-add on arm64 rounds it the
// way the NEON GEMM and axpy it stands in for do.
func activeOuter() bool { return hasOuterASM && !genericForced() }

// activeSelect gates the ReLU and max-pool assembly: amd64 only (the
// package doc says why arm64 keeps the select loops).
func activeSelect() bool { return hasSelectASM && !genericForced() }

// activeBM gates the Box-Muller assembly: amd64 only (the package doc
// says why arm64 runs the math package).
func activeBM() bool { return hasBMASM && !genericForced() }

// activeBMAVX512 gates BoxMullerSplitMix32's zmm kernel: the avx512 arm
// on a host with AVX512DQ.
func activeBMAVX512() bool { return hasBMAVX512 && pinned.Load() == pinAuto }

// Name reports which implementation dispatch selects right now:
// "avx512", "avx2", "neon" or "generic". "avx512" names the GEMM
// arm and BoxMullerSplitMix32's zmm kernel; the other kernels have no
// AVX-512 code and run AVX2 under it.
func Name() string {
	switch {
	case activeAVX512():
		return "avx512"
	case Active():
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
	if n >= zmmMinN && activeAVX512() {
		gemmPanelKAVX512(out, arows, b, r0, r1, k, n, lda, aoff, acc)
		return
	}
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

// GemmTable computes an indirect GEMM with a bias:
//
//	out[i*n+j] = (+0 + a[i*k]·B[0,j] + … + a[i*k+k-1]·B[k-1,j]) + bias[i]
//
// for i in [0, m) and j in [0, n), where row p of B is
// b[off[p] : off[p]+n], read in place through the offset table off,
// and the bias add is left out when bias is nil. internal/tensor's
// eval convolution reads its kernel taps this way instead of
// materialising a column matrix. Each output keeps one chain over p in
// order, as GemmPanel over the materialised B runs it (KC panel stores
// change no bit), and the bias is the one add after the chain that
// out + bias makes, so the result is bit-identical to that pair on
// every input GemmPanel's own arms agree on.
//
// Outputs TableTile accepts run on the AVX-512 tile; every other call
// runs the pure-Go reference, which has no vector code behind it.
func GemmTable(out, a, b []float32, off []int, bias []float32, m, k, n int) {
	if m == 0 || n == 0 {
		return
	}
	// The tile walks raw pointers: pin every operand's extent first.
	_ = out[m*n-1]
	_ = a[:m*k]
	if bias != nil {
		_ = bias[m-1]
	}
	for _, o := range off[:k] {
		if o < 0 || o > len(b)-n {
			panic("kernels: GemmTable offset out of range")
		}
	}
	if k > 0 && TableTile(m, n) {
		gemmTableAVX512(out, a, b, off, bias, m, k, n)
		return
	}
	gemmTableGeneric(out, a, b, off, bias, m, k, n)
}

// TableTile reports whether GemmTable runs an [m, n] output on the
// AVX-512 tile right now: the tile is active and the output is whole
// 8-row by 16-column tiles.
func TableTile(m, n int) bool {
	return activeAVX512() && m%8 == 0 && n%zmmMinN == 0
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

// OuterStep applies one plain-SGD step to rows [r0, r1) of a dense
// layer's [in, out] weight matrix straight from the layer's input x
// ([batch, in], row-major) and output gradient dy ([batch, out]):
//
//	w[i*out+j] += alpha · clamp(+0 + x[0,i]·dy[0,j] + … + x[batch-1,i]·dy[batch-1,j])
//
// where clamp limits into [-limit, limit] (limit > 0; +Inf clamps
// nothing) and the sum is one chain, first row first. That is,
// operation for operation, zeroing a gradient G, accumulating xᵀ·dy
// into it through GemmPanel, Clamp(G, limit) and Axpy(alpha, G, w), so
// the result is bit-identical to that sequence on the same arm while G
// is never materialized. The assembly keeps each kernel's order too:
// separate multiply and add, x as the multiply's first source, the
// chain as the add's first, and Clamp's min/max operands, so a NaN or
// in-range lane keeps its bits. Two cases may differ, and in both the
// sequence's own result depends on the code path, not the arithmetic:
// the generic GEMM's single-row path skips zero x terms, which matters
// only for a non-finite dy; and when two NaNs with different payloads
// meet in an add, operand order picks the survivor, which Axpy's
// vector body and its scalar tail already pick differently.
func OuterStep(w, x, dy []float32, r0, r1, batch, in, out int, alpha, limit float32) {
	if !(limit > 0) {
		panic("kernels: OuterStep with non-positive limit")
	}
	if r1 <= r0 || out == 0 {
		return
	}
	_ = w[(r1-1)*out+out-1]
	if batch > 0 {
		_ = x[(batch-1)*in+r1-1]
		_ = dy[(batch-1)*out+out-1]
	}
	nv := 0
	if activeOuter() && batch > 0 && out >= outerStride {
		nv = out &^ (outerStride - 1)
		outerStepVec(&w[r0*out], &x[r0], &dy[0], r1-r0, batch, in, out, nv, alpha, limit)
	}
	if nv < out {
		outerStepGeneric(w, x, dy, r0, r1, batch, in, out, nv, alpha, limit)
	}
}

// ReLU writes dst[i] = x[i] where x[i] > 0 and +0 elsewhere, so NaN and
// −0 come out +0 (panics unless len(dst) == len(x)). Bit-identical to
// the select loop on every input: the assembly's MAXPS takes x as its
// first source and +0 as its second, and returns the second unless the
// first compares greater.
func ReLU(dst, x []float32) {
	if len(dst) != len(x) {
		panic("kernels: ReLU length mismatch")
	}
	i := 0
	if activeSelect() && len(x) >= selectStride {
		nv := len(x) &^ (selectStride - 1)
		reluVec(&dst[0], &x[0], nv)
		i = nv
	}
	reluGeneric(dst[i:], x[i:])
}

// ReLUGrad writes dx[i] = g[i] where y[i] > 0 and +0 elsewhere (panics
// unless the three lengths match). y is ReLU's output, which is
// positive exactly where its input was. Bit-identical to the select
// loop: the assembly ANDs g with a 0 < y compare mask.
func ReLUGrad(dx, g, y []float32) {
	if len(dx) != len(y) || len(g) != len(y) {
		panic("kernels: ReLUGrad length mismatch")
	}
	i := 0
	if activeSelect() && len(y) >= selectStride {
		nv := len(y) &^ (selectStride - 1)
		reluGradVec(&dx[0], &g[0], &y[0], nv)
		i = nv
	}
	reluGradGeneric(dx[i:], g[i:], y[i:])
}

// MaxPool2x2 pools x, rows×w row-major with rows and w even, into dst,
// (rows/2)×(w/2): dst[p, q] is the max of the window at x rows 2p and
// 2p+1, columns 2q and 2q+1. A stack of planes with an even height is
// one call. The max is one chain over (0,0), (0,1), (1,0), (1,1) that
// moves only on a strict >: the first of equal maxima wins, and so
// does a NaN at (0,0), while a later NaN never does. The assembly keeps
// those bits by running MAXPS with the candidate as first source and
// the running max second. It takes every 16-column group of a row pair
// and, for 8-wide rows, two row pairs per vector; the other columns
// and an odd last 8-wide row pair run the scalar chain.
func MaxPool2x2(dst, x []float32, rows, w int) {
	pairs := poolPairs(len(x), len(dst), rows, w, "MaxPool2x2")
	units, blocks, span, half, p0, c0 := poolSplit(pairs, w)
	if units > 0 {
		maxPool2x2Vec(&dst[0], &x[0], units, blocks, span, half, w)
	}
	maxPool2x2Generic(dst[p0*w/2:], x[p0*2*w:], pairs-p0, w, c0)
}

// MaxPool2x2Grad is MaxPool2x2's backward: with g the gradient of its
// output (len rows·w/4) and x its input, it writes dx (len rows·w) =
// +0 + g at each window's winner, recomputed from x by the same chain,
// and +0 at the window's other three positions. Windows do not
// overlap, so that is bit for bit what zeroing dx and adding g at
// each winner gives. The assembly recomputes the winners with compare
// masks beside the forward's MAXPS chain.
func MaxPool2x2Grad(dx, g, x []float32, rows, w int) {
	pairs := poolPairs(len(x), len(g), rows, w, "MaxPool2x2Grad")
	if len(dx) != len(x) {
		panic("kernels: MaxPool2x2Grad length mismatch")
	}
	units, blocks, span, half, p0, c0 := poolSplit(pairs, w)
	if units > 0 {
		maxPool2x2GradVec(&dx[0], &g[0], &x[0], units, blocks, span, half, w)
	}
	maxPool2x2GradGeneric(dx[p0*2*w:], g[p0*w/2:], x[p0*2*w:], pairs-p0, w, c0)
}

// poolCols is the source width one step of the pool assembly covers:
// two vectors per row, eight windows.
const poolCols = 16

// poolPairs checks a pool's geometry and returns its row-pair count.
func poolPairs(nx, nout, rows, w int, name string) int {
	if rows < 0 || w < 0 || rows%2 != 0 || w%2 != 0 || nx != rows*w || nout != nx/4 {
		panic("kernels: " + name + " shape mismatch")
	}
	return rows / 2
}

// poolSplit picks the pool assembly's share of pairs row pairs of width
// w, in maxPool2x2Vec's terms: units of blocks groups at the given
// span and half offset. It leaves row pairs [p0, pairs) and, of every
// row pair, columns [c0, w) to the scalar chain; units is 0 when the
// assembly takes nothing.
func poolSplit(pairs, w int) (units, blocks, span, half, p0, c0 int) {
	if !activeSelect() {
		return 0, 0, 0, 0, 0, 0
	}
	switch {
	case w == poolCols/2:
		// 8 wide: a vector holds one window row, so a group takes two
		// row pairs, c being the second pair's top row.
		units = pairs / 2
		return units, 1, 2 * w, 2 * w, 2 * units, 0
	case w >= poolCols:
		c0 = w &^ (poolCols - 1)
		if c0 == w {
			p0 = pairs
		}
		return pairs, w / poolCols, w, poolCols / 2, p0, c0
	}
	return 0, 0, 0, 0, 0, 0
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

// BoxMuller32 writes the Box-Muller transform of each (u[i], v[i])
// pair to dst[2i] and dst[2i+1] as float32:
//
//	mag := math.Sqrt(-2 * math.Log(u[i]))
//	dst[2i], dst[2i+1] = float32(mag·math.Cos(2π·v[i])), float32(mag·math.Sin(2π·v[i]))
//
// which is bit for bit what NormFloat32 returns for the pair and then
// for its cached spare (panics unless len(u) == len(v) and len(dst) ==
// 2·len(u)). The inputs are Norm's draws: u in (0, 1) and v in [0, 1).
// The AVX2 arm computes four pairs at a time with the operations of
// the amd64 standard library (see the package doc); every other arm
// calls the math package.
func BoxMuller32(dst []float32, u, v []float64) {
	if len(u) != len(v) || len(dst) != 2*len(u) {
		panic("kernels: BoxMuller32 length mismatch")
	}
	i := 0
	if activeBM() && len(u) >= bmStride {
		nv := len(u) &^ (bmStride - 1)
		boxMullerVec(&dst[0], &u[0], &v[0], nv)
		i = nv
	}
	boxMullerGeneric(dst[2*i:], u[i:], v[i:])
}

// BoxMullerSplitMix32 draws Box-Muller pairs straight from a SplitMix64
// stream (rng's generator) whose state is s. Pair i takes its u and v
// from the stream's draws 2i+1 and 2i+2, scaled as rng.Float64 scales
// them: u = (mix(s+(2i+1)γ)>>11)/2⁵³ and v = (mix(s+(2i+2)γ)>>11)/2⁵³.
// It writes what BoxMuller32 writes for the pair to dst[2i] and
// dst[2i+1], in whole blocks of eight pairs, as many as fit in dst,
// and stops before the first block with a zero u, which rng.Norm would
// redraw. It returns the pairs written, so the caller's stream goes on
// at s + 2·pairs·γ. Only the avx512 arm on a host with AVX512DQ has
// this kernel; everywhere else it writes nothing and returns 0, and
// the caller draws the pairs itself and calls BoxMuller32.
func BoxMullerSplitMix32(dst []float32, s uint64) (pairs int) {
	np := len(dst) / 2 &^ (bmzStride - 1)
	if !activeBMAVX512() || np == 0 {
		return 0
	}
	return boxMullerSplitMixVec(&dst[0], s, np)
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
