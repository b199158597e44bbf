//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 Gaussian noise: SplitMix64 uniforms and the Box-Muller
// transform in zmm registers, eight pairs per iteration. The transform
// is boxMullerVec's (kernels_amd64.s) operation for operation, on
// eight lanes instead of four; its constants are boxMullerConsts,
// read one lane wide through embedded broadcasts. No FMA anywhere.

#define BM(i) ·boxMullerConsts+(i*32)(SB)
#define SM(i) ·splitMixConsts+(i*8)(SB)

// func boxMullerSplitMixVec(dst *float32, s uint64, np int) int
//
// For pair i in [0, np): u = mix(s+(2i+1)γ)>>11 and v = mix(s+(2i+2)γ)>>11,
// the stream's draws 2i+1 and 2i+2, become float64 as Norm's Float64
// makes them (an exact conversion and an exact scaling by 2⁻⁵³), and
// dst[2i], dst[2i+1] get boxMullerVec's float32(mag·cos) and
// float32(mag·sin) for them. mix is SplitMix64's finalizer: two
// VPMULLQ (AVX512DQ), the 64-bit multiply AVX2 lacks. A block whose u
// has a zero lane (VPTESTNMQ) ends the loop before anything of it is
// stored, because Norm would redraw that u. Returns the pairs written,
// a multiple of 8. np is a positive multiple of 8.
TEXT ·boxMullerSplitMixVec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	VPBROADCASTQ s+8(FP), Z16
	MOVQ np+16(FP), CX
	XORQ BX, BX

	VPADDQ        SM(5), Z16, Z16   // u states: s + (2i+1)γ per lane
	VPADDQ.BCST   SM(2), Z16, Z17   // v states: one γ later
	VPBROADCASTQ  SM(3), Z18        // 16γ: eight pairs on
	VPBROADCASTQ  SM(0), Z19        // mix's first multiplier
	VPBROADCASTQ  SM(1), Z20        // mix's second multiplier
	VPBROADCASTQ  SM(4), Z21        // 2⁻⁵³

bmz_loop:
	// u's 53 bits: mix(state) >> 11.
	VPSRLQ    $30, Z16, Z22
	VPXORQ    Z16, Z22, Z22
	VPMULLQ   Z19, Z22, Z22
	VPSRLQ    $27, Z22, Z23
	VPXORQ    Z22, Z23, Z22
	VPMULLQ   Z20, Z22, Z22
	VPSRLQ    $31, Z22, Z23
	VPXORQ    Z22, Z23, Z22
	VPSRLQ    $11, Z22, Z22
	VPTESTNMQ Z22, Z22, K1
	KORTESTW  K1, K1
	JNE       bmz_done          // a zero u: Norm would redraw it

	// v's 53 bits.
	VPSRLQ    $30, Z17, Z23
	VPXORQ    Z17, Z23, Z23
	VPMULLQ   Z19, Z23, Z23
	VPSRLQ    $27, Z23, Z24
	VPXORQ    Z23, Z24, Z23
	VPMULLQ   Z20, Z23, Z23
	VPSRLQ    $31, Z23, Z24
	VPXORQ    Z23, Z24, Z23
	VPSRLQ    $11, Z23, Z23
	VPADDQ    Z18, Z16, Z16
	VPADDQ    Z18, Z17, Z17
	VCVTQQ2PD Z22, Z0
	VMULPD    Z21, Z0, Z0       // u
	VCVTQQ2PD Z23, Z1
	VMULPD    Z21, Z1, Z1       // v

	// archLog(u), operation for operation.
	VPANDQ.BCST   BM(0), Z0, Z2      // mantissa bits
	VPORQ.BCST    BM(1), Z2, Z2      // f1 in [0.5, 1)
	VPSRLQ        $52, Z0, Z3        // biased exponent (u > 0: no sign bit)
	VPORQ.BCST    BM(2), Z3, Z3      // 2⁵² + exponent
	VSUBPD.BCST   BM(3), Z3, Z3      // k
	VBROADCASTSD  BM(4), Z4
	VCMPPD        $5, Z2, Z4, K2     // !(HSqrt2 < f1)
	VBROADCASTSD  BM(5), Z4
	VMOVAPD.Z     Z4, K2, Z4         // 0 or 1
	VSUBPD        Z4, Z3, Z3         // k -= 0 or 1
	VADDPD.BCST   BM(5), Z4, Z4      // 1 or 2
	VMULPD        Z4, Z2, Z2         // f1 *= 1 or 2
	VSUBPD.BCST   BM(5), Z2, Z2      // f = f1 - 1
	VADDPD.BCST   BM(6), Z2, Z5      // 2 + f
	VDIVPD        Z5, Z2, Z5         // s = f / (2 + f)
	VMULPD        Z5, Z5, Z6         // s2
	VMULPD        Z6, Z6, Z7         // s4
	VMULPD.BCST   BM(13), Z7, Z8     // L7·s4
	VADDPD.BCST   BM(11), Z8, Z8     // + L5
	VMULPD        Z7, Z8, Z8
	VADDPD.BCST   BM(9), Z8, Z8      // + L3
	VMULPD        Z7, Z8, Z8
	VADDPD.BCST   BM(7), Z8, Z8      // + L1
	VMULPD        Z8, Z6, Z6         // t1
	VMULPD.BCST   BM(12), Z7, Z8     // L6·s4
	VADDPD.BCST   BM(10), Z8, Z8     // + L4
	VMULPD        Z7, Z8, Z8
	VADDPD.BCST   BM(8), Z8, Z8      // + L2
	VMULPD        Z8, Z7, Z7         // t2
	VADDPD        Z7, Z6, Z6         // R = t1 + t2
	VMULPD.BCST   BM(1), Z2, Z7      // 0.5·f
	VMULPD        Z2, Z7, Z7         // hfsq = 0.5·f·f
	VADDPD        Z7, Z6, Z6         // hfsq + R
	VMULPD        Z6, Z5, Z5         // s·(hfsq + R)
	VMULPD.BCST   BM(15), Z3, Z6     // k·Ln2Lo
	VADDPD        Z6, Z5, Z5
	VSUBPD        Z5, Z7, Z7         // hfsq - (s·(hfsq + R) + k·Ln2Lo)
	VSUBPD        Z2, Z7, Z7         // ... - f
	VMULPD.BCST   BM(14), Z3, Z3     // k·Ln2Hi
	VSUBPD        Z7, Z3, Z3         // log u
	VMULPD.BCST   BM(16), Z3, Z3     // -2·log u
	VSQRTPD       Z3, Z3             // mag

	// sin.go's reduction of x = 2π·v.
	VMULPD.BCST   BM(17), Z1, Z1     // x
	VMULPD.BCST   BM(18), Z1, Z4     // x·(4/π)
	VRNDSCALEPD   $3, Z4, Z4         // float64(j), j truncated
	VADDPD.BCST   BM(2), Z4, Z9      // bits of 2⁵² + j: j in the low bits
	VPANDQ.BCST   BM(19), Z9, Z10    // j&1
	VPADDQ        Z10, Z9, Z9        // j++ where odd
	VSUBPD.BCST   BM(2), Z9, Z4      // y = float64(j)
	VPSLLQ        $62, Z9, Z10       // sign bit = j&2: the polynomials swap
	VPSLLQ        $61, Z9, Z11
	VPANDQ.BCST   BM(20), Z11, Z11   // sign bit = j&4: sin's sign
	VPXORQ        Z10, Z11, Z12      // sign bit = j&4 xor j&2: cos's sign
	VMULPD.BCST   BM(21), Z4, Z6     // y·PI4A
	VSUBPD        Z6, Z1, Z1
	VMULPD.BCST   BM(22), Z4, Z6     // y·PI4B
	VSUBPD        Z6, Z1, Z1
	VMULPD.BCST   BM(23), Z4, Z6     // y·PI4C
	VSUBPD        Z6, Z1, Z1         // z
	VMULPD        Z1, Z1, Z4         // zz

	// z + z·zz·(((((_sin[0]·zz + _sin[1])·zz + ...)·zz + _sin[5])
	VMULPD.BCST   BM(24), Z4, Z6
	VADDPD.BCST   BM(25), Z6, Z6
	VMULPD        Z4, Z6, Z6
	VADDPD.BCST   BM(26), Z6, Z6
	VMULPD        Z4, Z6, Z6
	VADDPD.BCST   BM(27), Z6, Z6
	VMULPD        Z4, Z6, Z6
	VADDPD.BCST   BM(28), Z6, Z6
	VMULPD        Z4, Z6, Z6
	VADDPD.BCST   BM(29), Z6, Z6
	VMULPD        Z4, Z1, Z7         // z·zz
	VMULPD        Z6, Z7, Z7
	VADDPD        Z7, Z1, Z7         // the sine polynomial

	// 1 - 0.5·zz + zz·zz·(((((_cos[0]·zz + _cos[1])·zz + ...)·zz + _cos[5])
	VMULPD.BCST   BM(30), Z4, Z6
	VADDPD.BCST   BM(31), Z6, Z6
	VMULPD        Z4, Z6, Z6
	VADDPD.BCST   BM(32), Z6, Z6
	VMULPD        Z4, Z6, Z6
	VADDPD.BCST   BM(33), Z6, Z6
	VMULPD        Z4, Z6, Z6
	VADDPD.BCST   BM(34), Z6, Z6
	VMULPD        Z4, Z6, Z6
	VADDPD.BCST   BM(35), Z6, Z6
	VMULPD        Z4, Z4, Z8         // zz·zz
	VMULPD        Z6, Z8, Z8
	VMULPD.BCST   BM(1), Z4, Z6      // 0.5·zz
	VBROADCASTSD  BM(5), Z13
	VSUBPD        Z6, Z13, Z13       // 1 - 0.5·zz
	VADDPD        Z8, Z13, Z13       // the cosine polynomial

	// Octant: swap where j&2, then flip the signs.
	VPMOVQ2M      Z10, K3
	VBLENDMPD     Z13, Z7, K3, Z14   // sin
	VBLENDMPD     Z7, Z13, K3, Z15   // cos
	VPXORQ        Z11, Z14, Z14
	VPXORQ        Z12, Z15, Z15
	VMULPD        Z15, Z3, Z15       // mag·cos
	VMULPD        Z14, Z3, Z14       // mag·sin
	VCVTPD2PS     Z15, Y15
	VCVTPD2PS     Z14, Y14
	VUNPCKLPS     Y14, Y15, Y0       // cos0 sin0 cos1 sin1 | cos4 sin4 cos5 sin5
	VUNPCKHPS     Y14, Y15, Y1       // cos2 sin2 cos3 sin3 | cos6 sin6 cos7 sin7
	VPERM2F128    $0x20, Y1, Y0, Y2  // pairs 0-3
	VPERM2F128    $0x31, Y1, Y0, Y3  // pairs 4-7
	VMOVUPS       Y2, (DI)
	VMOVUPS       Y3, 32(DI)
	ADDQ $64, DI
	ADDQ $8, BX
	SUBQ $8, CX
	JNZ  bmz_loop

bmz_done:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET
