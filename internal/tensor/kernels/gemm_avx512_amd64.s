//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 GEMM tile. The bit rules are the AVX2 kernels' (see
// kernels_amd64.s): separate VMULPS/VADDPS, never FMA, and vector lanes
// that are independent output columns, so each output element keeps
// one sequential accumulation chain over p in panel order. The zmm
// tile only holds more of those chains in flight: eight accumulators,
// against four in the AVX2 4×8 tile.
//
// When zero is set the chains start from +0 in registers (VPXORD)
// instead of loading o: +0 + x is x for every x but −0, and both
// starts turn a −0 first product into +0, so the bits match the
// zeroed-row start of the other kernels.

// func gemmTile8x16(o, a, b *float32, kb, n, lda, nv int, zero bool)
//
// For r in 0..7 and j in [0, nv): o[r·n+j] (+)= Σ_{p<kb} a[r·lda+p]·b[p·n+j]
// (counts in floats). nv is a positive multiple of 16; kb ≥ 1. The
// tile sweeps nv in 16-column strips; per p step one b zmm load feeds
// eight broadcasts, eight products and eight chains. Rows 4..7 are
// addressed from a second base four rows down.
TEXT ·gemmTile8x16(SB), NOSPLIT, $0-57
	MOVQ o+0(FP), DI
	MOVQ b+16(FP), R14
	MOVQ n+32(FP), DX
	SHLQ $2, DX              // o and b row stride in bytes
	LEAQ (DX)(DX*2), R11     // 3 o rows
	MOVQ lda+40(FP), R9
	SHLQ $2, R9              // a row stride in bytes
	LEAQ (R9)(R9*2), R10     // 3 a rows
	MOVQ nv+48(FP), BX

t816_jloop:
	LEAQ (DI)(DX*4), R13     // o row 4
	CMPB zero+56(FP), $0
	JEQ  t816_load
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	JMP  t816_start

t816_load:
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(DX*1), Z1
	VMOVUPS (DI)(DX*2), Z2
	VMOVUPS (DI)(R11*1), Z3
	VMOVUPS (R13), Z4
	VMOVUPS (R13)(DX*1), Z5
	VMOVUPS (R13)(DX*2), Z6
	VMOVUPS (R13)(R11*1), Z7

t816_start:
	MOVQ a+8(FP), SI         // &a_0[p]
	LEAQ (SI)(R9*4), R8      // &a_4[p]
	MOVQ R14, R12            // &b[p·n+j]
	MOVQ kb+24(FP), CX

t816_ploop:
	VMOVUPS (R12), Z8
	VBROADCASTSS (SI), Z10
	VBROADCASTSS (SI)(R9*1), Z11
	VBROADCASTSS (SI)(R9*2), Z12
	VBROADCASTSS (SI)(R10*1), Z13
	VBROADCASTSS (R8), Z14
	VBROADCASTSS (R8)(R9*1), Z15
	VBROADCASTSS (R8)(R9*2), Z24
	VBROADCASTSS (R8)(R10*1), Z25
	VMULPS Z8, Z10, Z16
	VMULPS Z8, Z11, Z17
	VMULPS Z8, Z12, Z18
	VMULPS Z8, Z13, Z19
	VMULPS Z8, Z14, Z20
	VMULPS Z8, Z15, Z21
	VMULPS Z8, Z24, Z22
	VMULPS Z8, Z25, Z23
	VADDPS Z16, Z0, Z0
	VADDPS Z17, Z1, Z1
	VADDPS Z18, Z2, Z2
	VADDPS Z19, Z3, Z3
	VADDPS Z20, Z4, Z4
	VADDPS Z21, Z5, Z5
	VADDPS Z22, Z6, Z6
	VADDPS Z23, Z7, Z7
	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ DX, R12
	DECQ CX
	JNZ  t816_ploop

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(DX*1)
	VMOVUPS Z2, (DI)(DX*2)
	VMOVUPS Z3, (DI)(R11*1)
	VMOVUPS Z4, (R13)
	VMOVUPS Z5, (R13)(DX*1)
	VMOVUPS Z6, (R13)(DX*2)
	VMOVUPS Z7, (R13)(R11*1)
	ADDQ $64, DI
	ADDQ $64, R14
	SUBQ $16, BX
	JNZ  t816_jloop

	VZEROUPPER
	RET
