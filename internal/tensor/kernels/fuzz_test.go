package kernels

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzGEMMKernels drives random (including odd, prime, and sub-vector)
// shapes with random leading dimensions through every arm the host can
// run — AVX-512, AVX2 or NEON, and the generic fallback — and holds
// each bit-identical to the sequential naive reference. The lda/aoff
// padding deliberately misaligns the row bases so vector loads
// straddle cache lines.
func FuzzGEMMKernels(f *testing.F) {
	f.Logf("arms: %v", Arms())
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(1), false)
	f.Add(uint8(3), uint8(7), uint8(5), uint8(1), int64(2), true)
	f.Add(uint8(4), uint8(129), uint8(8), uint8(0), int64(3), false)
	f.Add(uint8(13), uint8(31), uint8(17), uint8(3), int64(4), true)
	f.Add(uint8(9), uint8(255), uint8(23), uint8(5), int64(5), false)
	f.Add(uint8(32), uint8(64), uint8(33), uint8(2), int64(6), false)

	f.Fuzz(func(t *testing.T, m8, k8, n8, pad8 uint8, seed int64, acc bool) {
		m := int(m8)%48 + 1
		k := int(k8) + 1
		n := int(n8)%96 + 1
		pad := int(pad8) % 8
		lda := k + pad
		aoff := pad / 2

		rng := rand.New(rand.NewSource(seed))
		a := randSlice(rng, m*lda+aoff)
		b := randSlice(rng, k*n)
		start := randSlice(rng, m*n)

		packed := make([]float32, m*k)
		for i := 0; i < m; i++ {
			copy(packed[i*k:], a[i*lda+aoff:i*lda+aoff+k])
		}
		want := append([]float32(nil), start...)
		gemmRef(want, packed, b, m, k, n, acc)

		check := func(label string, got []float32) {
			t.Helper()
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s (%dx%dx%d lda=%d aoff=%d acc=%v): out[%d]=%x want %x",
						label, m, k, n, lda, aoff, acc, i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}

		eachArm(func(arm string) {
			got := append([]float32(nil), start...)
			for p0 := 0; p0 < k; p0 += KC {
				p1 := min(p0+KC, k)
				GemmPanelK(got, a, b[p0*n:], 0, m, p1-p0, n, lda, aoff+p0, acc || p0 > 0)
			}
			check(arm, got)
		})
	})
}

// FuzzGEMMTable drives random shapes and offset tables through
// GemmTable on every arm and holds each bit-identical to the sequential
// reference over the materialised B plus the bias. m and n are drawn so
// that about half the shapes are whole 8×16 tiles, which the AVX-512
// arm takes, and k reaches three KC panels.
func FuzzGEMMTable(f *testing.F) {
	f.Logf("arms: %v", Arms())
	f.Add(uint8(0), uint16(26), uint8(63), int64(1), true)  // conv1: 8 × 27 × 1024
	f.Add(uint8(1), uint16(71), uint8(15), int64(2), true)  // conv2: 16 × 72 × 256
	f.Add(uint8(3), uint16(143), uint8(3), int64(3), false) // conv3: 32 × 144 × 64, two panels
	f.Add(uint8(7), uint16(299), uint8(70), int64(4), true) // ragged 8 × 300 × 71: generic arm
	f.Fuzz(func(t *testing.T, m8 uint8, k16 uint16, n8 uint8, seed int64, withBias bool) {
		m, n := (int(m8)%4+1)*8, (int(n8)%64+1)*16
		if m8&4 != 0 {
			m, n = int(m8)%40+1, int(n8)%96+1
		}
		k := int(k16)%400 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randSlice(rng, m*k)
		b, off := tableOperand(rng, k, n)
		bmat := materialise(b, off, n)
		var bias []float32
		if withBias {
			bias = randSlice(rng, m)
		}
		want := make([]float32, m*n)
		gemmRef(want, a, bmat, m, k, n, false)
		for i, bv := range bias {
			for j := i * n; j < (i+1)*n; j++ {
				want[j] += bv
			}
		}
		eachArm(func(arm string) {
			got := randSlice(rng, m*n)
			GemmTable(got, a, b, off, bias, m, k, n)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("GemmTable (%dx%dx%d bias=%v) [%s]: out[%d]=%x want %x",
						m, k, n, withBias, arm, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		})
	})
}

// FuzzElementwiseKernels covers the non-GEMM kernels the same way:
// dispatch vs generic vs scalar formula on arbitrary lengths.
func FuzzElementwiseKernels(f *testing.F) {
	f.Add(uint16(1), int64(1))
	f.Add(uint16(31), int64(2))
	f.Add(uint16(257), int64(3))
	f.Add(uint16(4099), int64(4))

	f.Fuzz(func(t *testing.T, n16 uint16, seed int64) {
		n := int(n16)
		rng := rand.New(rand.NewSource(seed))
		x := randSlice(rng, n)
		y := randSlice(rng, n)
		alpha := float32(rng.NormFloat64())

		want := append([]float32(nil), y...)
		for i := range want {
			want[i] += alpha * x[i]
		}
		got := append([]float32(nil), y...)
		Axpy(alpha, x, got)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("Axpy n=%d [%s]: got[%d]=%v want %v", n, Name(), i, got[i], want[i])
			}
		}

		ai := make([]int8, n)
		bi := make([]int8, n)
		for i := range ai {
			ai[i] = int8(rng.Intn(256) - 128)
			bi[i] = int8(rng.Intn(256) - 128)
		}
		var ref int64
		for i := range ai {
			ref += int64(ai[i]) * int64(bi[i])
		}
		if got := DotI8(ai, bi); int64(got) != ref {
			t.Fatalf("DotI8 n=%d [%s]: got %d want %d", n, Name(), got, ref)
		}

		codes := make([]byte, n)
		rng.Read(codes)
		lo, step := float32(rng.NormFloat64()), float32(math.Abs(rng.NormFloat64())*0.01)
		dq := make([]float32, n)
		Dequantize8(dq, codes, lo, step)
		for i := range dq {
			if want := lo + float32(codes[i])*step; math.Float32bits(dq[i]) != math.Float32bits(want) {
				t.Fatalf("Dequantize8 n=%d [%s]: got[%d]=%v want %v", n, Name(), i, dq[i], want)
			}
		}

		h := make([]uint16, n)
		F32ToF16(h, x)
		UseArm("generic")
		hg := make([]uint16, n)
		F32ToF16(hg, x)
		UseArm("")
		for i := range h {
			if h[i] != hg[i] {
				t.Fatalf("F32ToF16 n=%d [%s]: dispatch %#04x generic %#04x at %d", n, Name(), h[i], hg[i], i)
			}
		}
	})
}

// FuzzClamp feeds raw bit patterns — so NaN payloads, infinities,
// signed zeros and subnormals turn up unprompted — at an arbitrary
// length, start offset and limit through the dispatched Clamp and the
// forced generic one, and holds both to the reference loop bit for bit.
func FuzzClamp(f *testing.F) {
	f.Add([]byte{}, uint32(0x3F800000), uint8(0))
	f.Add([]byte{0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0xFF, 0, 0, 0, 0x80, 1, 0, 0, 0}, uint32(0x3F000000), uint8(1))
	f.Add(make([]byte, 4*19), uint32(0x00000001), uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over the lazy dog"), uint32(0x7F7FFFFF), uint8(7))

	f.Fuzz(func(t *testing.T, raw []byte, limitBits uint32, off8 uint8) {
		limit := math.Float32frombits(limitBits)
		if !(limit > 0) {
			return
		}
		off := int(off8) % 8
		back := make([]float32, off+len(raw)/4)
		x := back[off:]
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		checkClamp(t, x, limit)
	})
}

// FuzzSelectKernels feeds raw bit patterns, so NaN payloads, infinities,
// signed zeros, subnormals and ties turn up unprompted, through ReLU,
// ReLUGrad, MaxPool2x2 and MaxPool2x2Grad as a stack of rows of an even
// width up to 48 at an arbitrary start offset, and holds every arm to
// the branching references bit for bit. The gradients are the same
// bits read back to front.
func FuzzSelectKernels(f *testing.F) {
	f.Add([]byte{}, uint8(3), uint8(0))
	f.Add([]byte{0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0xFF, 0, 0, 0, 0x80, 1, 0, 0, 0}, uint8(0), uint8(1))
	f.Add(make([]byte, 4*8*6), uint8(3), uint8(5))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over the lazy dog, and back"), uint8(7), uint8(2))

	f.Fuzz(func(t *testing.T, raw []byte, w8, off8 uint8) {
		w := 2 * (1 + int(w8)%24)
		rows := len(raw) / 4 / w &^ 1
		n := rows * w
		off := int(off8) % 8
		back := make([]float32, off+n)
		x := back[off:]
		g := make([]float32, n)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			g[n-1-i] = x[i]
		}
		checkSelectKernels(t, x, g, g[:n/4], rows, w)
	})
}

// FuzzBoxMuller holds BoxMuller32 on every arm to the math package on
// pairs read from the input, 16 bytes a pair. A u or v whose top bit
// is clear lands on Norm's lattice of multiples of 2⁻⁵³ (a zero u
// becomes 2⁻⁵³); one whose top bit is set is any normal float64 in
// (0, 1), or [0, 1) for v, so the exponent bits log's frexp masks and
// sin's octant reduction see are the fuzzer's too.
func FuzzBoxMuller(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16*5))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xef\xbf\x00\x00\x00\x00\x00\x00\xe0\xbf\x9e\x79\x66\x7f\xf3\xa0\xe6\xbf\x00\x00\x00\x00\x00\x00\xe8\xbf"))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over the lazy dog, and back"))
	unit := func(x uint64, zero float64) float64 {
		if x>>63 == 0 {
			if y := float64(x>>11) / (1 << 53); y != 0 || zero == 0 {
				return y
			}
			return zero
		}
		y := math.Float64frombits(x &^ (1 << 63) % 0x3FF0000000000000)
		if y < 0x1p-1022 {
			return zero
		}
		return y
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 16
		u, v := make([]float64, n), make([]float64, n)
		for i := range u {
			u[i] = unit(binary.LittleEndian.Uint64(raw[16*i:]), 0x1p-53)
			v[i] = unit(binary.LittleEndian.Uint64(raw[16*i+8:]), 0)
		}
		checkBoxMuller(t, u, v)
	})
}
