//go:build amd64 && !purego

#include "textflag.h"

// AVX2 microkernels. Two rules keep these bit-identical to the pure-Go
// reference (see the package doc):
//
//   - GEMM and axpy use separate VMULPS/VADDPS — never FMA — because gc
//     does not fuse a*b+c on amd64, and a fused kernel would round
//     differently from the scalar reference.
//   - The GEMM kernels vectorize across output columns only: each
//     output element's accumulation over the k dimension stays a single
//     sequential chain, in the same order the scalar kernel walks it.
//
// All loads and stores are unaligned-tolerant (VMOVUPS and friends);
// tensor.Pool hands out 32-byte-aligned backing so the common case
// never splits a cache line. Every routine ends in VZEROUPPER to avoid
// AVX-SSE transition penalties in surrounding Go code.

// func gemmPanel4(o0, o1, o2, o3, a0, a1, a2, a3, b *float32, kb, n, nv int)
//
// For r in 0..3 and j in [0, nv): o_r[j] += Σ_{p<kb} a_r[p]·b[p·n+j].
// nv is a positive multiple of 8; kb ≥ 1. Eight-column strips: per p
// step one b row segment is loaded once and feeds all four rows'
// broadcast multiply-adds.
TEXT ·gemmPanel4(SB), NOSPLIT, $0-96
	MOVQ b+64(FP), R14
	MOVQ n+80(FP), DX
	SHLQ $2, DX              // b row stride in bytes
	MOVQ nv+88(FP), BX       // columns remaining
	XORQ SI, SI              // current column offset in bytes

gp4_jloop:
	MOVQ o0+0(FP), AX
	VMOVUPS (AX)(SI*1), Y0
	MOVQ o1+8(FP), AX
	VMOVUPS (AX)(SI*1), Y1
	MOVQ o2+16(FP), AX
	VMOVUPS (AX)(SI*1), Y2
	MOVQ o3+24(FP), AX
	VMOVUPS (AX)(SI*1), Y3
	MOVQ a0+32(FP), R8
	MOVQ a1+40(FP), R9
	MOVQ a2+48(FP), R10
	MOVQ a3+56(FP), R11
	LEAQ (R14)(SI*1), R12    // &b[j]
	MOVQ kb+72(FP), CX

gp4_ploop:
	VMOVUPS (R12), Y4        // b[p*n+j : +8]
	VBROADCASTSS (R8), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y0, Y0
	VBROADCASTSS (R9), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y1, Y1
	VBROADCASTSS (R10), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y2, Y2
	VBROADCASTSS (R11), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y3, Y3
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ DX, R12
	DECQ CX
	JNZ  gp4_ploop

	MOVQ o0+0(FP), AX
	VMOVUPS Y0, (AX)(SI*1)
	MOVQ o1+8(FP), AX
	VMOVUPS Y1, (AX)(SI*1)
	MOVQ o2+16(FP), AX
	VMOVUPS Y2, (AX)(SI*1)
	MOVQ o3+24(FP), AX
	VMOVUPS Y3, (AX)(SI*1)
	ADDQ $32, SI
	SUBQ $8, BX
	JNZ  gp4_jloop

	VZEROUPPER
	RET

// func gemmPanel1(o, a, b *float32, kb, n, nv int)
//
// Single-row variant of gemmPanel4 for the <4 remainder rows.
TEXT ·gemmPanel1(SB), NOSPLIT, $0-48
	MOVQ b+16(FP), R14
	MOVQ n+32(FP), DX
	SHLQ $2, DX
	MOVQ nv+40(FP), BX
	XORQ SI, SI

gp1_jloop:
	MOVQ o+0(FP), AX
	VMOVUPS (AX)(SI*1), Y0
	MOVQ a+8(FP), R8
	LEAQ (R14)(SI*1), R12
	MOVQ kb+24(FP), CX

gp1_ploop:
	VMOVUPS (R12), Y4
	VBROADCASTSS (R8), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y0, Y0
	ADDQ $4, R8
	ADDQ DX, R12
	DECQ CX
	JNZ  gp1_ploop

	MOVQ o+0(FP), AX
	VMOVUPS Y0, (AX)(SI*1)
	ADDQ $32, SI
	SUBQ $8, BX
	JNZ  gp1_jloop

	VZEROUPPER
	RET

// func dotVec(a, b *float32, nv int) float32
//
// Four independent 8-lane accumulators (reassociation is part of Dot's
// contract), reduced with adds and horizontal adds at the end.
// nv is a positive multiple of 32.
TEXT ·dotVec(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ nv+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

dot_loop:
	VMOVUPS (SI), Y4
	VMOVUPS (DI), Y5
	VMULPS Y5, Y4, Y4
	VADDPS Y4, Y0, Y0
	VMOVUPS 32(SI), Y4
	VMOVUPS 32(DI), Y5
	VMULPS Y5, Y4, Y4
	VADDPS Y4, Y1, Y1
	VMOVUPS 64(SI), Y4
	VMOVUPS 64(DI), Y5
	VMULPS Y5, Y4, Y4
	VADDPS Y4, Y2, Y2
	VMOVUPS 96(SI), Y4
	VMOVUPS 96(DI), Y5
	VMULPS Y5, Y4, Y4
	VADDPS Y4, Y3, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JNZ  dot_loop

	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func axpyVec(alpha float32, x, y *float32, nv int)
//
// y[i] += alpha·x[i]. Separate multiply and add, matching gc's scalar
// codegen on amd64. nv is a positive multiple of 8.
TEXT ·axpyVec(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ nv+24(FP), CX

axpy_loop:
	VMOVUPS (SI), Y1
	VMULPS Y0, Y1, Y1
	VMOVUPS (DI), Y2
	VADDPS Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  axpy_loop

	VZEROUPPER
	RET

// func clampVec(x *float32, limit float32, nv int)
//
// x[i] = max(-limit, min(limit, x[i])) in place. MINPS/MAXPS return
// their second source whenever the compare is false, so x rides in the
// second source of both: an in-range lane and a NaN lane (signaling
// ones included) come back with the bits they went in with, exactly
// what the two-compare reference leaves behind. nv is a positive
// multiple of 8.
TEXT ·clampVec(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	VBROADCASTSS limit+8(FP), Y0
	MOVQ nv+16(FP), CX
	VPCMPEQD Y2, Y2, Y2
	VPSLLD $31, Y2, Y2  // sign-bit mask
	VXORPS Y2, Y0, Y1   // -limit

clamp_loop:
	VMINPS (DI), Y0, Y3 // limit < x ? limit : x
	VMAXPS Y3, Y1, Y3   // -limit > r ? -limit : r
	VMOVUPS Y3, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  clamp_loop

	VZEROUPPER
	RET

// func dotI8Vec(a, b *int8, nv int) int32
//
// Widen 16 int8 lanes to int16, multiply-accumulate adjacent pairs
// into int32 (VPMADDWD: |products| ≤ 2·127² so the int16→int32 pair
// sum cannot overflow), and reduce exactly. nv is a positive multiple
// of 32.
TEXT ·dotI8Vec(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ nv+16(FP), CX
	VPXOR Y0, Y0, Y0

di8_loop:
	VPMOVSXBW (SI), Y1
	VPMOVSXBW (DI), Y2
	VPMADDWD Y2, Y1, Y1
	VPADDD Y1, Y0, Y0
	VPMOVSXBW 16(SI), Y1
	VPMOVSXBW 16(DI), Y2
	VPMADDWD Y2, Y1, Y1
	VPADDD Y1, Y0, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ  di8_loop

	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0xEE, X0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0x55, X0, X1
	VPADDD X1, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func f16ToF32Vec(dst *float32, src *uint16, nv int)
//
// Hardware F16C widening; exact. nv is a positive multiple of 8.
TEXT ·f16ToF32Vec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ nv+16(FP), CX

f16u_loop:
	VCVTPH2PS (SI), Y0
	VMOVUPS Y0, (DI)
	ADDQ $16, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  f16u_loop

	VZEROUPPER
	RET

// func f32ToF16Vec(dst *uint16, src *float32, nv int)
//
// Hardware F16C narrowing with round-to-nearest-even (imm8=0), the
// mode the scalar converter reproduces. nv is a positive multiple of 8.
TEXT ·f32ToF16Vec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ nv+16(FP), CX

f16n_loop:
	VMOVUPS (SI), Y0
	VCVTPS2PH $0, Y0, (DI)
	ADDQ $32, SI
	ADDQ $16, DI
	SUBQ $8, CX
	JNZ  f16n_loop

	VZEROUPPER
	RET

// func dequant8Vec(dst *float32, src *byte, lo, step float32, nv int)
//
// dst[i] = lo + float32(src[i])·step: zero-extend 8 codes to int32,
// convert (exact), multiply then add — the scalar evaluation order.
// nv is a positive multiple of 8.
TEXT ·dequant8Vec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VBROADCASTSS lo+16(FP), Y1
	VBROADCASTSS step+20(FP), Y2
	MOVQ nv+24(FP), CX

dq8_loop:
	VPMOVZXBD (SI), Y0
	VCVTDQ2PS Y0, Y0
	VMULPS Y2, Y0, Y0
	VADDPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $8, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  dq8_loop

	VZEROUPPER
	RET
