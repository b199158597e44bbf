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
// Single-row variant of gemmPanel4 for the <4 remainder rows. One row
// has one chain per column, so each k step would wait on the previous
// add: while 32 columns remain, four 8-column strips run in
// independent registers off one broadcast, then single strips finish.
// Every column still adds its products one at a time in panel order.
TEXT ·gemmPanel1(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), AX
	MOVQ b+16(FP), R14
	MOVQ n+32(FP), DX
	SHLQ $2, DX
	MOVQ nv+40(FP), BX
	SHLQ $2, BX              // vector columns in bytes
	XORQ SI, SI

gp1_block:
	MOVQ BX, R9
	SUBQ SI, R9
	CMPQ R9, $128
	JLT  gp1_strip
	VMOVUPS (AX)(SI*1), Y0
	VMOVUPS 32(AX)(SI*1), Y1
	VMOVUPS 64(AX)(SI*1), Y2
	VMOVUPS 96(AX)(SI*1), Y3
	MOVQ a+8(FP), R8
	LEAQ (R14)(SI*1), R12
	MOVQ kb+24(FP), CX

gp1_bloop:
	VBROADCASTSS (R8), Y5
	VMULPS (R12), Y5, Y6
	VADDPS Y6, Y0, Y0
	VMULPS 32(R12), Y5, Y7
	VADDPS Y7, Y1, Y1
	VMULPS 64(R12), Y5, Y8
	VADDPS Y8, Y2, Y2
	VMULPS 96(R12), Y5, Y9
	VADDPS Y9, Y3, Y3
	ADDQ $4, R8
	ADDQ DX, R12
	DECQ CX
	JNZ  gp1_bloop

	VMOVUPS Y0, (AX)(SI*1)
	VMOVUPS Y1, 32(AX)(SI*1)
	VMOVUPS Y2, 64(AX)(SI*1)
	VMOVUPS Y3, 96(AX)(SI*1)
	ADDQ $128, SI
	JMP  gp1_block

gp1_strip:
	CMPQ SI, BX
	JEQ  gp1_done
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

	VMOVUPS Y0, (AX)(SI*1)
	ADDQ $32, SI
	JMP  gp1_strip

gp1_done:
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

// func outerStepVec(w, x, dy *float32, rows, batch, in, out, nv int, alpha, limit float32)
//
// For r in [0, rows) and j in [0, nv):
//   u = +0 + x[0·in+r]·dy[0·out+j] + … + x[(batch-1)·in+r]·dy[(batch-1)·out+j]
//   w[r·out+j] += alpha·clamp(u, limit)
// Each lane runs the gemmPanel4 chain (x broadcast as the multiply's
// first source, the chain as the add's), clampVec's min/max and
// axpyVec's multiply and add (w as the add's first source), so it
// rounds exactly as zeroing G, accumulating, clamping and stepping
// would. Columns are the outer loop: a 32-column block (four 8-column
// strips sharing each x broadcast) walks every row before the next
// block starts, then single strips do the same. That keeps the slice of
// dy a block reads in L1 however many columns dy has. nv is a positive
// multiple of 8; rows and batch are at least 1.
TEXT ·outerStepVec(SB), NOSPLIT, $0-72
	MOVQ w+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ dy+16(FP), R14
	MOVQ in+40(FP), R15
	SHLQ $2, R15             // x row stride in bytes
	MOVQ out+48(FP), DX
	SHLQ $2, DX              // w and dy row stride in bytes
	MOVQ nv+56(FP), R13
	SHLQ $2, R13             // vector columns in bytes
	VBROADCASTSS alpha+64(FP), Y12
	VBROADCASTSS limit+68(FP), Y13
	VPCMPEQD Y14, Y14, Y14
	VPSLLD $31, Y14, Y14     // sign-bit mask
	VXORPS Y14, Y13, Y14     // -limit
	XORQ R9, R9              // column offset in bytes

os_block:
	MOVQ R13, AX
	SUBQ R9, AX
	CMPQ AX, $128
	JLT  os_strip
	LEAQ (DI)(R9*1), R8      // &w[0·out+j]
	MOVQ SI, R10             // &x[0·in+r]
	MOVQ rows+24(FP), BX

os_brow:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ R10, R11            // &x[b·in+r]
	LEAQ (R14)(R9*1), R12    // &dy[b·out+j]
	MOVQ batch+32(FP), CX

os_bloop:
	VBROADCASTSS (R11), Y4
	VMULPS (R12), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(R12), Y4, Y6
	VADDPS Y6, Y1, Y1
	VMULPS 64(R12), Y4, Y7
	VADDPS Y7, Y2, Y2
	VMULPS 96(R12), Y4, Y8
	VADDPS Y8, Y3, Y3
	ADDQ R15, R11
	ADDQ DX, R12
	DECQ CX
	JNZ  os_bloop

	VMINPS Y0, Y13, Y0       // limit < u ? limit : u
	VMAXPS Y0, Y14, Y0       // -limit > r ? -limit : r
	VMINPS Y1, Y13, Y1
	VMAXPS Y1, Y14, Y1
	VMINPS Y2, Y13, Y2
	VMAXPS Y2, Y14, Y2
	VMINPS Y3, Y13, Y3
	VMAXPS Y3, Y14, Y3
	VMULPS Y12, Y0, Y0
	VMULPS Y12, Y1, Y1
	VMULPS Y12, Y2, Y2
	VMULPS Y12, Y3, Y3
	VMOVUPS (R8), Y5
	VADDPS Y0, Y5, Y5
	VMOVUPS Y5, (R8)
	VMOVUPS 32(R8), Y6
	VADDPS Y1, Y6, Y6
	VMOVUPS Y6, 32(R8)
	VMOVUPS 64(R8), Y7
	VADDPS Y2, Y7, Y7
	VMOVUPS Y7, 64(R8)
	VMOVUPS 96(R8), Y8
	VADDPS Y3, Y8, Y8
	VMOVUPS Y8, 96(R8)
	ADDQ DX, R8              // next w row
	ADDQ $4, R10             // next x column
	DECQ BX
	JNZ  os_brow

	ADDQ $128, R9
	JMP  os_block

os_strip:
	CMPQ R9, R13
	JEQ  os_done
	LEAQ (DI)(R9*1), R8
	MOVQ SI, R10
	MOVQ rows+24(FP), BX

os_srow:
	VXORPS Y0, Y0, Y0
	MOVQ R10, R11
	LEAQ (R14)(R9*1), R12
	MOVQ batch+32(FP), CX

os_sloop:
	VBROADCASTSS (R11), Y4
	VMULPS (R12), Y4, Y5
	VADDPS Y5, Y0, Y0
	ADDQ R15, R11
	ADDQ DX, R12
	DECQ CX
	JNZ  os_sloop

	VMINPS Y0, Y13, Y0
	VMAXPS Y0, Y14, Y0
	VMULPS Y12, Y0, Y0
	VMOVUPS (R8), Y5
	VADDPS Y0, Y5, Y5
	VMOVUPS Y5, (R8)
	ADDQ DX, R8
	ADDQ $4, R10
	DECQ BX
	JNZ  os_srow

	ADDQ $32, R9
	JMP  os_strip

os_done:
	VZEROUPPER
	RET

// func reluVec(dst, x *float32, nv int)
//
// dst[i] = x[i] > +0 ? x[i] : +0. MAXPS returns its second source
// unless the first compares greater, so with x first and +0 second a
// NaN, a −0 and every non-positive lane come back +0, the select
// loop's result. nv is a positive multiple of 8; four vectors per step
// while 32 elements remain.
TEXT ·reluVec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ nv+16(FP), CX
	VXORPS Y0, Y0, Y0        // +0

relu_block:
	CMPQ CX, $32
	JLT  relu_strip
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMAXPS Y0, Y1, Y1        // x > +0 ? x : +0
	VMAXPS Y0, Y2, Y2
	VMAXPS Y0, Y3, Y3
	VMAXPS Y0, Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  relu_block

relu_strip:
	TESTQ CX, CX
	JZ    relu_done
	VMOVUPS (SI), Y1
	VMAXPS Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  relu_strip

relu_done:
	VZEROUPPER
	RET

// func reluGradVec(dx, dy, y *float32, nv int)
//
// dx[i] = y[i] > +0 ? dy[i] : +0: dy ANDed with the +0 < y compare
// mask (ordered, so a NaN y clears the lane). nv is a positive multiple of
// 8; four vectors per step while 32 elements remain.
TEXT ·reluGradVec(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ nv+24(FP), CX
	VXORPS Y0, Y0, Y0        // +0

relug_block:
	CMPQ CX, $32
	JLT  relug_strip
	VCMPPS $0x11, (DX), Y0, Y1 // +0 < y (LT_OQ)
	VCMPPS $0x11, 32(DX), Y0, Y2
	VCMPPS $0x11, 64(DX), Y0, Y3
	VCMPPS $0x11, 96(DX), Y0, Y4
	VANDPS (SI), Y1, Y1
	VANDPS 32(SI), Y2, Y2
	VANDPS 64(SI), Y3, Y3
	VANDPS 96(SI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  relug_block

relug_strip:
	TESTQ CX, CX
	JZ    relug_done
	VCMPPS $0x11, (DX), Y0, Y1
	VANDPS (SI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  relug_strip

relug_done:
	VZEROUPPER
	RET

// func maxPool2x2Vec(dst, x *float32, units, blocks, span, half, below int)
//
// 2×2 max pool, eight windows per group. Unit u reads x from
// u·2·span floats on and writes dst from u·span/2 on; its group b reads
// the vectors a = x[16b:], c = x[16b+half:] and the rows below them at
// +below, and writes dst[8b : 8b+8]. Row pairs of width w run with
// span = below = w and half = 8, so a and c are the 16 columns of a
// window row. 8-wide row pairs run two to a group with span = half =
// 16 and below = 8: c is the next row pair's top row.
//
// SHUFPS 0x88/0xDD splits even and odd columns: each 128-bit lane
// holds two windows' columns from a, then two from c. The chain (0,0), (0,1),
// (1,0), (1,1) is three MAXPS with the candidate as first source and
// the running max second, so a tie or a NaN candidate keeps the
// running max, as the scalar chain's strict > does. The lanes come out
// in window order 0 1 4 5 2 3 6 7, and one VPERMPD (qwords 0 2 1 3)
// restores it. units and blocks are positive.
TEXT ·maxPool2x2Vec(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ units+16(FP), R8
	MOVQ span+32(FP), R9
	SHLQ $2, R9              // span in bytes
	MOVQ R9, R12
	SHRQ $1, R12             // dst unit stride: span/2 floats
	MOVQ half+40(FP), R10
	SHLQ $2, R10
	MOVQ below+48(FP), R11
	SHLQ $2, R11

mp_unit:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ blocks+24(FP), CX

mp_group:
	LEAQ (AX)(R11*1), DX
	VMOVUPS (AX), Y0         // a
	VMOVUPS (AX)(R10*1), Y1  // c
	VMOVUPS (DX), Y2         // a's lower row
	VMOVUPS (DX)(R10*1), Y3  // c's lower row
	VSHUFPS $0x88, Y1, Y0, Y4 // (0,0)
	VSHUFPS $0xDD, Y1, Y0, Y5 // (0,1)
	VSHUFPS $0x88, Y3, Y2, Y6 // (1,0)
	VSHUFPS $0xDD, Y3, Y2, Y7 // (1,1)
	VMAXPS Y4, Y5, Y4        // (0,1) > m ? (0,1) : m
	VMAXPS Y4, Y6, Y4
	VMAXPS Y4, Y7, Y4
	VPERMPD $0xD8, Y4, Y4
	VMOVUPS Y4, (BX)
	ADDQ $64, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  mp_group

	LEAQ (SI)(R9*2), SI
	ADDQ R12, DI
	DECQ R8
	JNZ  mp_unit

	VZEROUPPER
	RET

// func maxPool2x2GradVec(dx, dy, x *float32, units, blocks, span, half, below int)
//
// MaxPool2x2Grad over maxPool2x2Vec's groups: the output gradient dy
// and x are read where the forward wrote and read, dx is written where
// x was read. The chain
// reruns with GT_OQ compare masks c1, c2, c3 taken against the running
// max before each MAXPS, so c_k is set exactly where the scalar chain
// moves on step k. The winner is the last step that moved: (1,1) where
// c3, (1,0) where c2 and not c3, and so on. Each position gets
// +0 + dy ANDed with its winner mask, so +0 where it lost. VPERMPD
// takes dy into the shuffled lane order, and UNPCKLPS/UNPCKHPS of the
// even and odd columns give back a's and c's column order.
TEXT ·maxPool2x2GradVec(SB), NOSPLIT, $0-64
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), BX
	MOVQ x+16(FP), SI
	MOVQ units+24(FP), R8
	MOVQ span+40(FP), R9
	SHLQ $2, R9
	MOVQ R9, R12
	SHRQ $1, R12             // dy unit stride: span/2 floats
	MOVQ half+48(FP), R10
	SHLQ $2, R10
	MOVQ below+56(FP), R11
	SHLQ $2, R11
	VXORPS Y15, Y15, Y15     // +0

mpg_unit:
	MOVQ SI, AX
	MOVQ DI, DX
	MOVQ BX, R13
	MOVQ blocks+32(FP), CX

mpg_group:
	LEAQ (AX)(R11*1), R14
	VMOVUPS (AX), Y0
	VMOVUPS (AX)(R10*1), Y1
	VMOVUPS (R14), Y2
	VMOVUPS (R14)(R10*1), Y3
	VSHUFPS $0x88, Y1, Y0, Y4 // (0,0)
	VSHUFPS $0xDD, Y1, Y0, Y5 // (0,1)
	VSHUFPS $0x88, Y3, Y2, Y6 // (1,0)
	VSHUFPS $0xDD, Y3, Y2, Y7 // (1,1)
	VCMPPS $0x1E, Y4, Y5, Y8  // c1: (0,1) > m
	VMAXPS Y4, Y5, Y4
	VCMPPS $0x1E, Y4, Y6, Y9  // c2: (1,0) > m
	VMAXPS Y4, Y6, Y4
	VCMPPS $0x1E, Y4, Y7, Y10 // c3: (1,1) > m
	VPERMPD $0xD8, (R13), Y11 // dy in shuffled lane order
	VADDPS Y11, Y15, Y11      // +0 + dy
	VANDPS Y11, Y10, Y3       // (1,1) wins where c3
	VANDNPS Y11, Y10, Y11     // what is left where not c3
	VANDPS Y11, Y9, Y2        // (1,0)
	VANDNPS Y11, Y9, Y11
	VANDPS Y11, Y8, Y1        // (0,1)
	VANDNPS Y11, Y8, Y0       // (0,0) where no step moved
	VUNPCKLPS Y1, Y0, Y4      // a's row
	VUNPCKHPS Y1, Y0, Y5      // c's row
	VUNPCKLPS Y3, Y2, Y6      // the rows below
	VUNPCKHPS Y3, Y2, Y7
	LEAQ (DX)(R11*1), R14
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, (DX)(R10*1)
	VMOVUPS Y6, (R14)
	VMOVUPS Y7, (R14)(R10*1)
	ADDQ $64, AX
	ADDQ $64, DX
	ADDQ $32, R13
	DECQ CX
	JNZ  mpg_group

	LEAQ (SI)(R9*2), SI
	LEAQ (DI)(R9*2), DI
	ADDQ R12, BX
	DECQ R8
	JNZ  mpg_unit

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

// BM(i) is boxMullerConsts[i], four lanes of one float64 constant.
#define BM(i) ·boxMullerConsts+(i*32)(SB)

// func boxMullerVec(dst *float32, u, v *float64, nv int)
//
// Four Box-Muller pairs per iteration: dst[2i], dst[2i+1] =
// float32(mag·cos), float32(mag·sin) with mag = √(−2·log u[i]) and the
// angle 2π·v[i]. Every lane runs the amd64 standard library's
// operations in their order, with separate multiplies and adds as gc
// emits them on amd64:
//
//   - log is math/log_amd64.s (archLog, which is math.Log on amd64):
//     frexp by bit masks, k -= 1 and f1 *= 2 where CMPSD's NLT says
//     !(HSqrt2 < f1), then its polynomial and final expression term by
//     term. The exponent becomes a float64 through 2⁵²: OR its bits
//     into 2⁵²'s mantissa and subtract 2⁵² plus the bias, exactly.
//   - VSQRTPD is SQRTSD, the math.Sqrt intrinsic, lane by lane.
//   - sin and cos are sin.go's for 0 ≤ x < 2π, below its trigReduce
//     threshold: j = uint64(x·(4/π)) truncated (VROUNDPD $3), the odd
//     j bumped through the integer bits of 2⁵² + j, the three-part π/4
//     reduction, both polynomials in Go's left-to-right order, and the
//     octant's polynomial swap and sign flips as sign-bit masks.
//
// VCVTPD2PS rounds to float32 as CVTSD2SS does. nv is a positive
// multiple of 4; u must be positive and v in [0, 1).
TEXT ·boxMullerVec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ nv+24(FP), CX

bm_loop:
	// archLog(u), operation for operation.
	VMOVUPD (SI), Y0
	VANDPD  BM(0), Y0, Y2      // mantissa bits
	VORPD   BM(1), Y2, Y2      // f1 in [0.5, 1)
	VPSRLQ  $52, Y0, Y3        // biased exponent (u > 0: no sign bit)
	VPOR    BM(2), Y3, Y3      // 2⁵² + exponent
	VSUBPD  BM(3), Y3, Y3      // k
	VMOVUPD BM(4), Y4
	VCMPPD  $5, Y2, Y4, Y4     // !(HSqrt2 < f1)
	VANDPD  BM(5), Y4, Y4      // 0 or 1
	VSUBPD  Y4, Y3, Y3         // k -= 0 or 1
	VADDPD  BM(5), Y4, Y4      // 1 or 2
	VMULPD  Y4, Y2, Y2         // f1 *= 1 or 2
	VSUBPD  BM(5), Y2, Y2      // f = f1 - 1
	VADDPD  BM(6), Y2, Y5      // 2 + f
	VDIVPD  Y5, Y2, Y5         // s = f / (2 + f)
	VMULPD  Y5, Y5, Y6         // s2
	VMULPD  Y6, Y6, Y7         // s4
	VMULPD  BM(13), Y7, Y8     // L7·s4
	VADDPD  BM(11), Y8, Y8     // + L5
	VMULPD  Y7, Y8, Y8
	VADDPD  BM(9), Y8, Y8      // + L3
	VMULPD  Y7, Y8, Y8
	VADDPD  BM(7), Y8, Y8      // + L1
	VMULPD  Y8, Y6, Y6         // t1
	VMULPD  BM(12), Y7, Y8     // L6·s4
	VADDPD  BM(10), Y8, Y8     // + L4
	VMULPD  Y7, Y8, Y8
	VADDPD  BM(8), Y8, Y8      // + L2
	VMULPD  Y8, Y7, Y7         // t2
	VADDPD  Y7, Y6, Y6         // R = t1 + t2
	VMULPD  BM(1), Y2, Y7      // 0.5·f
	VMULPD  Y2, Y7, Y7         // hfsq = 0.5·f·f
	VADDPD  Y7, Y6, Y6         // hfsq + R
	VMULPD  Y6, Y5, Y5         // s·(hfsq + R)
	VMULPD  BM(15), Y3, Y6     // k·Ln2Lo
	VADDPD  Y6, Y5, Y5
	VSUBPD  Y5, Y7, Y7         // hfsq - (s·(hfsq + R) + k·Ln2Lo)
	VSUBPD  Y2, Y7, Y7         // ... - f
	VMULPD  BM(14), Y3, Y3     // k·Ln2Hi
	VSUBPD  Y7, Y3, Y3         // log u
	VMULPD  BM(16), Y3, Y3     // -2·log u
	VSQRTPD Y3, Y3             // mag

	// sin.go's reduction of x = 2π·v.
	VMOVUPD (DX), Y1
	VMULPD  BM(17), Y1, Y1     // x
	VMULPD  BM(18), Y1, Y4     // x·(4/π)
	VROUNDPD $3, Y4, Y4        // float64(j), j truncated
	VADDPD  BM(2), Y4, Y9      // bits of 2⁵² + j: j in the low bits
	VANDPD  BM(19), Y9, Y10    // j&1
	VPADDQ  Y10, Y9, Y9        // j++ where odd
	VSUBPD  BM(2), Y9, Y4      // y = float64(j)
	VPSLLQ  $62, Y9, Y10       // sign bit = j&2: the polynomials swap
	VPSLLQ  $61, Y9, Y11
	VANDPD  BM(20), Y11, Y11   // sign bit = j&4: sin's sign
	VXORPD  Y10, Y11, Y12      // sign bit = j&4 xor j&2: cos's sign
	VMULPD  BM(21), Y4, Y6     // y·PI4A
	VSUBPD  Y6, Y1, Y1
	VMULPD  BM(22), Y4, Y6     // y·PI4B
	VSUBPD  Y6, Y1, Y1
	VMULPD  BM(23), Y4, Y6     // y·PI4C
	VSUBPD  Y6, Y1, Y1         // z
	VMULPD  Y1, Y1, Y4         // zz

	// z + z·zz·(((((_sin[0]·zz + _sin[1])·zz + ...)·zz + _sin[5])
	VMULPD  BM(24), Y4, Y6
	VADDPD  BM(25), Y6, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  BM(26), Y6, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  BM(27), Y6, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  BM(28), Y6, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  BM(29), Y6, Y6
	VMULPD  Y4, Y1, Y7         // z·zz
	VMULPD  Y6, Y7, Y7
	VADDPD  Y7, Y1, Y7         // the sine polynomial

	// 1 - 0.5·zz + zz·zz·(((((_cos[0]·zz + _cos[1])·zz + ...)·zz + _cos[5])
	VMULPD  BM(30), Y4, Y6
	VADDPD  BM(31), Y6, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  BM(32), Y6, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  BM(33), Y6, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  BM(34), Y6, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  BM(35), Y6, Y6
	VMULPD  Y4, Y4, Y8         // zz·zz
	VMULPD  Y6, Y8, Y8
	VMULPD  BM(1), Y4, Y6      // 0.5·zz
	VMOVUPD BM(5), Y13
	VSUBPD  Y6, Y13, Y13       // 1 - 0.5·zz
	VADDPD  Y8, Y13, Y13       // the cosine polynomial

	// Octant: swap where j&2, then flip the signs.
	VBLENDVPD Y10, Y13, Y7, Y14 // sin
	VBLENDVPD Y10, Y7, Y13, Y15 // cos
	VXORPD  Y11, Y14, Y14
	VXORPD  Y12, Y15, Y15
	VMULPD  Y15, Y3, Y15       // mag·cos
	VMULPD  Y14, Y3, Y14       // mag·sin
	VCVTPD2PSY Y15, X15
	VCVTPD2PSY Y14, X14
	VUNPCKLPS X14, X15, X0     // cos0 sin0 cos1 sin1
	VUNPCKHPS X14, X15, X1     // cos2 sin2 cos3 sin3
	VMOVUPS X0, (DI)
	VMOVUPS X1, 16(DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  bm_loop

	VZEROUPPER
	RET
