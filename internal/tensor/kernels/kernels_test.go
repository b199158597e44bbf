package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// The tests in this file hold the dispatched implementation (AVX-512,
// AVX2 or NEON when the host has it, generic otherwise) to scalar
// references computed in plain Go, and — the forced-fallback guarantee
// — to the generic implementation UseArm("generic") selects. The GEMM tests
// run every arm the host has, each pinned with UseArm. For the
// bit-contract kernels the comparison is exact equality; only Dot gets
// a tolerance.

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// gemmRef is the sequential triple-loop reference: one accumulation
// chain per output element, k visited in order.
func gemmRef(out, a, b []float32, m, k, n int, acc bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			u := float32(0)
			if acc {
				u = out[i*n+j]
			}
			for p := 0; p < k; p++ {
				u += a[i*k+p] * b[p*n+j]
			}
			out[i*n+j] = u
		}
	}
}

var gemmDims = func() []struct{ m, k, n int } {
	dims := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 7, 3}, {2, 3, 5}, {3, 128, 8}, {4, 129, 16},
		{5, 64, 7}, {6, 31, 9}, {7, 255, 13}, {8, 128, 8}, {9, 257, 33},
		{13, 17, 19}, {16, 130, 40}, {4, 1, 64}, {1, 300, 65}, {32, 64, 24},
	}
	// Every tile edge of the AVX-512 arm: one, two, three and four
	// 16-column strips of the 8×16 tile, with and without the 8-column
	// and scalar remainders the AVX2 kernels take, row counts either
	// side of 8 and 16, and k either side of one KC panel.
	for _, n := range []int{16, 17, 24, 31, 32, 33, 48, 64, 65} {
		for _, m := range []int{7, 8, 9, 16, 17} {
			for _, k := range []int{1, 127, 128, 129, 257} {
				dims = append(dims, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return dims
}()

// eachArm runs fn once per arm Arms() lists, with dispatch pinned to
// it. Hosts without AVX-512 (or without any assembly) run fewer arms,
// so the tests that use it log Arms().
func eachArm(fn func(arm string)) {
	defer UseArm("")
	for _, arm := range Arms() {
		UseArm(arm)
		fn(arm)
	}
}

// specialZeros writes +0 into about one a element in eight and −0 into
// one b element in eight, so products of ±0 meet the accumulators at
// every chain position, the first one included.
func specialZeros(rng *rand.Rand, a, b []float32) {
	for i := range a {
		if rng.Intn(8) == 0 {
			a[i] = 0
		}
	}
	negZero := float32(math.Copysign(0, -1))
	for i := range b {
		if rng.Intn(8) == 0 {
			b[i] = negZero
		}
	}
}

func TestGemmPanelMatchesReference(t *testing.T) {
	t.Logf("arms: %v", Arms())
	rng := rand.New(rand.NewSource(1))
	for _, d := range gemmDims {
		for _, acc := range []bool{false, true} {
			a := randSlice(rng, d.m*d.k)
			b := randSlice(rng, d.k*d.n)
			specialZeros(rng, a, b)
			seed := randSlice(rng, d.m*d.n)

			want := append([]float32(nil), seed...)
			gemmRef(want, a, b, d.m, d.k, d.n, acc)

			eachArm(func(arm string) {
				got := append([]float32(nil), seed...)
				GemmPanel(got, a, b, 0, d.m, d.k, d.n, 0, acc)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("GemmPanel(%dx%dx%d acc=%v) [%s]: out[%d]=%x want %x",
							d.m, d.k, d.n, acc, arm, i,
							math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			})
		}
	}
}

// tableOperand draws an offset table of k rows over a b of rows·n + 7
// floats: rows from the start of successive n-float rows, shifted by up
// to 7 so they overlap and straddle the row grid, in a shuffled order
// with repeats, the way a convolution's taps read shifted input copies.
func tableOperand(rng *rand.Rand, k, n int) (b []float32, off []int) {
	rows := k/2 + 1
	b = randSlice(rng, rows*n+7)
	off = make([]int, k)
	for p := range off {
		off[p] = min(rng.Intn(rows)*n+rng.Intn(8), len(b)-n)
	}
	return b, off
}

// materialise returns B, the [len(off), n] matrix the table reads.
func materialise(b []float32, off []int, n int) []float32 {
	bmat := make([]float32, len(off)*n)
	for p, o := range off {
		copy(bmat[p*n:(p+1)*n], b[o:])
	}
	return bmat
}

// TestGemmTableMatchesGemmPanel holds GemmTable on every arm to
// GemmPanel on that arm over the materialised B, followed by the
// out + bias loop, bit for bit, with and without a bias. The shapes
// cover the table tile (m a multiple of 8, n of 16: the convolutions'
// K of 27, 72 and 144, which spans two KC panels, and k either side of
// one panel) and the outputs it leaves to the generic arm.
func TestGemmTableMatchesGemmPanel(t *testing.T) {
	t.Logf("arms: %v", Arms())
	rng := rand.New(rand.NewSource(11))
	var dims []struct{ m, k, n int }
	for _, m := range []int{8, 16, 32, 3, 12} {
		for _, k := range []int{1, 27, 72, 127, 128, 129, 144, 257} {
			for _, n := range []int{16, 64, 256, 1024, 24, 9} {
				dims = append(dims, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	dims = append(dims, struct{ m, k, n int }{8, 0, 16}, struct{ m, k, n int }{0, 9, 16})
	for _, d := range dims {
		a := randSlice(rng, d.m*d.k)
		b, off := tableOperand(rng, d.k, d.n)
		specialZeros(rng, a, b)
		bmat := materialise(b, off, d.n)
		for _, bias := range [][]float32{nil, randSlice(rng, d.m)} {
			eachArm(func(arm string) {
				want := make([]float32, d.m*d.n)
				GemmPanel(want, a, bmat, 0, d.m, d.k, d.n, 0, false)
				for i, bv := range bias {
					row := want[i*d.n : (i+1)*d.n]
					for j, v := range row {
						row[j] = v + bv
					}
				}
				got := randSlice(rng, d.m*d.n)
				GemmTable(got, a, b, off, bias, d.m, d.k, d.n)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("GemmTable(%dx%dx%d bias=%v) [%s, tile=%v]: out[%d]=%x want %x",
							d.m, d.k, d.n, bias != nil, arm, TableTile(d.m, d.n), i,
							math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			})
		}
	}
}

// TestGemmTableRejectsBadOffsets pins the bounds check that guards the
// tile's raw pointer walk.
func TestGemmTableRejectsBadOffsets(t *testing.T) {
	b := make([]float32, 40)
	for _, off := range [][]int{{0, -1}, {0, 25}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("GemmTable with offsets %v into %d floats at n = 16 did not panic", off, len(b))
				}
			}()
			GemmTable(make([]float32, 8*16), make([]float32, 8*2), b, off, nil, 8, 2, 16)
		}()
	}
}

func TestGemmPanelKStridedView(t *testing.T) {
	// Exercise lda/aoff: walk a panel out of the middle of a wider a.
	rng := rand.New(rand.NewSource(2))
	const m, lda, k, n = 6, 37, 17, 21
	a := randSlice(rng, m*lda)
	b := randSlice(rng, k*n)
	const aoff = 5
	packed := make([]float32, m*k)
	for i := 0; i < m; i++ {
		copy(packed[i*k:], a[i*lda+aoff:i*lda+aoff+k])
	}
	want := make([]float32, m*n)
	gemmRef(want, packed, b, m, k, n, false)

	got := make([]float32, m*n)
	GemmPanelK(got, a, b, 0, m, k, n, lda, aoff, false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GemmPanelK strided: out[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestGemmPanelRowRange(t *testing.T) {
	// Partial row ranges must leave other rows untouched, as the
	// parallel drivers in internal/tensor rely on.
	rng := rand.New(rand.NewSource(3))
	const m, k, n = 10, 33, 12
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	whole := make([]float32, m*n)
	GemmPanel(whole, a, b, 0, m, k, n, 0, false)

	split := make([]float32, m*n)
	for i := range split {
		split[i] = 999
	}
	GemmPanel(split, a, b, 0, 3, k, n, 0, false)
	GemmPanel(split, a, b, 3, 7, k, n, 0, false)
	GemmPanel(split, a, b, 7, m, k, n, 0, false)
	for i := range whole {
		if split[i] != whole[i] {
			t.Fatalf("row-range split: out[%d] = %v want %v", i, split[i], whole[i])
		}
	}
}

// TestForcedFallbackIdentical is the forced-fallback guarantee: on a
// host where dispatch selects assembly, routing through UseArm("generic")
// must produce byte-identical results for every bit-contract kernel,
// and every GEMM arm must match the generic one. (Under the purego tag
// both paths are the generic code and the test is trivially green.)
func TestForcedFallbackIdentical(t *testing.T) {
	t.Logf("arms: %v", Arms())
	rng := rand.New(rand.NewSource(4))
	if !Active() {
		t.Logf("no assembly dispatch on this host/build; comparing generic to itself")
	}
	for _, d := range gemmDims {
		for _, acc := range []bool{false, true} {
			a := randSlice(rng, d.m*d.k)
			b := randSlice(rng, d.k*d.n)
			seed := randSlice(rng, d.m*d.n)

			UseArm("generic")
			slow := append([]float32(nil), seed...)
			GemmPanel(slow, a, b, 0, d.m, d.k, d.n, 0, acc)
			UseArm("")

			eachArm(func(arm string) {
				fast := append([]float32(nil), seed...)
				GemmPanel(fast, a, b, 0, d.m, d.k, d.n, 0, acc)
				for i := range fast {
					if math.Float32bits(fast[i]) != math.Float32bits(slow[i]) {
						t.Fatalf("GemmPanel(%dx%dx%d acc=%v): %s %v != generic %v at %d",
							d.m, d.k, d.n, acc, arm, fast[i], slow[i], i)
					}
				}
			})
		}
	}

	for _, n := range []int{1, 7, 8, 31, 32, 33, 100, 1024, 4097} {
		x := randSlice(rng, n)
		y := randSlice(rng, n)

		yFast := append([]float32(nil), y...)
		Axpy(0.37, x, yFast)
		UseArm("generic")
		ySlow := append([]float32(nil), y...)
		Axpy(0.37, x, ySlow)
		UseArm("")
		for i := range yFast {
			if yFast[i] != ySlow[i] {
				t.Fatalf("Axpy n=%d: dispatch %v != generic %v at %d", n, yFast[i], ySlow[i], i)
			}
		}

		src := make([]byte, n)
		rng.Read(src)
		dFast := make([]float32, n)
		Dequantize8(dFast, src, -1.25, 0.013)
		UseArm("generic")
		dSlow := make([]float32, n)
		Dequantize8(dSlow, src, -1.25, 0.013)
		UseArm("")
		for i := range dFast {
			if dFast[i] != dSlow[i] {
				t.Fatalf("Dequantize8 n=%d: dispatch %v != generic %v at %d", n, dFast[i], dSlow[i], i)
			}
		}
	}
}

func TestDotAgainstF64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 31, 32, 33, 64, 100, 1000, 4096} {
		a := randSlice(rng, n)
		b := randSlice(rng, n)
		var ref float64
		for i := range a {
			ref += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		// Dot's contract allows lane reassociation: bound the error by
		// a conservative n·ε·Σ|a·b| envelope instead of ULP equality.
		var mag float64
		for i := range a {
			mag += math.Abs(float64(a[i]) * float64(b[i]))
		}
		tol := 1e-6*mag*float64(n+1) + 1e-7
		if math.Abs(got-ref) > tol {
			t.Fatalf("Dot n=%d [%s]: got %v want %v (tol %v)", n, Name(), got, ref, tol)
		}
	}
}

func TestDotI8Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 100, 1000, 4096, 65536} {
		a := make([]int8, n)
		b := make([]int8, n)
		for i := range a {
			a[i] = int8(rng.Intn(256) - 128)
			b[i] = int8(rng.Intn(256) - 128)
		}
		var ref int64
		for i := range a {
			ref += int64(a[i]) * int64(b[i])
		}
		if got := DotI8(a, b); int64(got) != ref {
			t.Fatalf("DotI8 n=%d [%s]: got %d want %d", n, Name(), got, ref)
		}
		UseArm("generic")
		got := DotI8(a, b)
		UseArm("")
		if int64(got) != ref {
			t.Fatalf("DotI8 generic n=%d: got %d want %d", n, got, ref)
		}
	}
	// Saturating worst case: extremes in both operands.
	a := make([]int8, 65536)
	b := make([]int8, 65536)
	for i := range a {
		a[i], b[i] = -128, -128
	}
	want := int32(65536 * 128 * 128)
	if got := DotI8(a, b); got != want {
		t.Fatalf("DotI8 extremes: got %d want %d", got, want)
	}
}

func TestF16WidenAllValues(t *testing.T) {
	// Every one of the 65536 half-precision encodings must widen the
	// same way through dispatch and through the scalar reference.
	src := make([]uint16, 1<<16)
	for i := range src {
		src[i] = uint16(i)
	}
	fast := make([]float32, len(src))
	F16ToF32(fast, src)
	for i, h := range src {
		want := F16ToF32Scalar(h)
		got := fast[i]
		if math.Float32bits(got) != math.Float32bits(want) {
			// NaN payloads are outside the contract only for narrow;
			// widening must be exact for every encoding.
			t.Fatalf("F16ToF32(%#04x) [%s]: got %x want %x", h, Name(),
				math.Float32bits(got), math.Float32bits(want))
		}
	}
}

func TestF16NarrowMatchesDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]float32, 1<<16+37)
	for i := range src {
		switch i % 8 {
		case 0:
			src[i] = float32(rng.NormFloat64())
		case 1:
			src[i] = float32(rng.NormFloat64() * 1e4)
		case 2:
			src[i] = float32(rng.NormFloat64() * 1e-6) // f16 subnormal range
		case 3:
			src[i] = float32(rng.NormFloat64() * 1e38) // overflow to Inf
		case 4:
			src[i] = float32(rng.NormFloat64() * 6e-8) // underflow boundary
		default:
			src[i] = float32(math.Float32frombits(rng.Uint32() &^ (0xFF << 23))) // finite-biased bit soup
		}
	}
	src = append(src, 0, float32(math.Copysign(0, -1)), 65504, -65504, 65520, -65520,
		float32(math.Inf(1)), float32(math.Inf(-1)), 5.9604645e-08, 2.9802322e-08, 6.1035156e-05)

	fast := make([]uint16, len(src))
	F32ToF16(fast, src)
	UseArm("generic")
	slow := make([]uint16, len(src))
	F32ToF16(slow, src)
	UseArm("")
	for i, v := range src {
		if math.IsNaN(float64(v)) {
			continue // NaN payload is implementation-defined
		}
		if fast[i] != slow[i] {
			t.Fatalf("F32ToF16(%v = %x) [%s]: dispatch %#04x generic %#04x",
				v, math.Float32bits(v), Name(), fast[i], slow[i])
		}
	}
}

func TestF16RoundTripExactForF16Values(t *testing.T) {
	// Narrow(widen(h)) must be the identity for every non-NaN encoding.
	for h := 0; h < 1<<16; h++ {
		u := uint16(h)
		if u&0x7C00 == 0x7C00 && u&0x03FF != 0 {
			continue // NaN
		}
		f := F16ToF32Scalar(u)
		if got := F32ToF16Scalar(f); got != u {
			t.Fatalf("roundtrip %#04x -> %v -> %#04x", u, f, got)
		}
	}
}

func TestF16BytesMatchesU16(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := randSlice(rng, 1001)
	u := make([]uint16, len(src))
	F32ToF16(u, src)
	bts := make([]byte, 2*len(src))
	F32ToF16Bytes(bts, src)
	for i := range src {
		if got := uint16(bts[2*i]) | uint16(bts[2*i+1])<<8; got != u[i] {
			t.Fatalf("F32ToF16Bytes[%d] = %#04x want %#04x", i, got, u[i])
		}
	}
	back := make([]float32, len(src))
	F16BytesToF32(back, bts)
	ref := make([]float32, len(src))
	F16ToF32(ref, u)
	for i := range back {
		if math.Float32bits(back[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("F16BytesToF32[%d] = %v want %v", i, back[i], ref[i])
		}
	}
}

func TestQuantize8MatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := randSlice(rng, 777)
	lo, scale := float32(-2.5), float32(51.3)
	dst := make([]byte, len(src))
	Quantize8(dst, src, lo, scale)
	for i, v := range src {
		q := (v - lo) * scale
		if q < 0 {
			q = 0
		} else if q > 255 {
			q = 255
		}
		if want := byte(q + 0.5); dst[i] != want {
			t.Fatalf("Quantize8[%d] = %d want %d", i, dst[i], want)
		}
	}
}

func TestAxpyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		x := randSlice(rng, n)
		y := randSlice(rng, n)
		want := append([]float32(nil), y...)
		for i := range want {
			want[i] += -0.025 * x[i]
		}
		got := append([]float32(nil), y...)
		Axpy(-0.025, x, got)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("Axpy n=%d [%s]: got[%d]=%v want %v", n, Name(), i, got[i], want[i])
			}
		}
	}
}

// clampSpecials are the inputs the Clamp bit-contract names: NaNs of
// both signs (quiet, signaling, with payload), infinities, signed
// zeros, subnormals and the float32 extremes.
var clampSpecials = []uint32{
	0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFA5A5A5, 0x7FFFFFFF, // NaNs
	0x7F800000, 0xFF800000, // ±Inf
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, // subnormals
	0x00800000, 0x80800000, 0x7F7FFFFF, 0xFF7FFFFF, // smallest/largest normals
}

// checkClamp runs Clamp on a copy of x under the current dispatch and
// pinned generic and holds both to the retained reference loop,
// bit for bit.
func checkClamp(t *testing.T, x []float32, limit float32) {
	t.Helper()
	want := append([]float32(nil), x...)
	clampGeneric(want, limit)
	for _, arm := range []string{"", "generic"} {
		got := append([]float32(nil), x...)
		UseArm(arm)
		label := Name()
		Clamp(got, limit)
		UseArm("")
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("Clamp n=%d limit=%v [%s]: x[%d]=%#08x -> %#08x, reference %#08x",
					len(x), limit, label, i, math.Float32bits(x[i]),
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestClampMatchesReference(t *testing.T) {
	t.Logf("dispatch: %s", Name())
	rng := rand.New(rand.NewSource(11))
	// Lengths 0..40 cover empty, sub-vector, exactly one and two
	// vectors and every tail length (2·clampStride+1 is 17 at most);
	// start offsets 0..7 put the vector body at every 4-byte
	// misalignment of a 32-byte line.
	for n := 0; n <= 40; n++ {
		for off := 0; off < 8; off++ {
			back := make([]float32, off+n)
			x := back[off:]
			for i := range x {
				switch rng.Intn(3) {
				case 0:
					x[i] = float32(rng.NormFloat64())
				case 1:
					x[i] = math.Float32frombits(clampSpecials[rng.Intn(len(clampSpecials))])
				default:
					x[i] = math.Float32frombits(rng.Uint32())
				}
			}
			checkClamp(t, x, 0.75)
		}
	}

	// Every special in every lane position (a prefix of 0..7 zeros
	// shifts the list across the lanes), at several limits — one of
	// them subnormal, one the largest finite value, one +Inf.
	for _, limit := range []float32{1, 1e-3, math.Float32frombits(0x00000003), math.MaxFloat32, float32(math.Inf(1))} {
		for shift := 0; shift < 8; shift++ {
			x := make([]float32, shift, shift+len(clampSpecials))
			for _, b := range clampSpecials {
				x = append(x, math.Float32frombits(b))
			}
			checkClamp(t, x, limit)
		}
	}

	// A limit at a value's exact magnitude: ±limit and the neighbours
	// one ULP either side must land where the strict compares put them.
	// Three copies of the six values reach past two vectors, so each
	// meets the vector body and the scalar tail.
	for _, limit := range []float32{1, 0.1, 3.1415927, 1e-38} {
		lb := math.Float32bits(limit)
		var x []float32
		for i := 0; i < 3; i++ {
			for _, b := range []uint32{lb - 1, lb, lb + 1} {
				x = append(x, math.Float32frombits(b), math.Float32frombits(b|0x80000000))
			}
		}
		checkClamp(t, x, limit)
	}
}

func TestClampRejectsNonPositiveLimit(t *testing.T) {
	for _, limit := range []float32{0, -1, float32(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Clamp(limit=%v) did not panic", limit)
				}
			}()
			Clamp(make([]float32, 9), limit)
		}()
	}
}

// outerStepSequence is what OuterStep fuses, run through this package's
// own kernels on the current arm: zero a gradient, accumulate xᵀ·dy
// into it with GemmPanel, Clamp it and Axpy it into w.
func outerStepSequence(w, x, dy []float32, batch, in, out int, alpha, limit float32) {
	xt := make([]float32, in*batch)
	for b := 0; b < batch; b++ {
		for i := 0; i < in; i++ {
			xt[i*batch+b] = x[b*in+i]
		}
	}
	g := make([]float32, in*out)
	GemmPanel(g, xt, dy, 0, in, batch, out, 0, true)
	Clamp(g, limit)
	Axpy(alpha, g, w)
}

// TestOuterStepMatchesSequence holds OuterStep to the zero, GEMM, Clamp
// and Axpy sequence bit for bit on every arm: batches either side of
// one KC panel, widths with and without 32- and 8-column remainders,
// clamp limits that bind everywhere, somewhere and nowhere (+Inf), and
// inputs and weights drawn partly from the Clamp specials. The output
// gradient stays finite, and every NaN is the default NaN that Inf·0
// produces (see OuterStep's doc). A row range in the middle must leave
// the rows outside it alone.
func TestOuterStepMatchesSequence(t *testing.T) {
	t.Logf("arms: %v", Arms())
	rng := rand.New(rand.NewSource(12))
	special := func(s []float32) {
		for i := range s {
			if rng.Intn(6) == 0 {
				v := math.Float32frombits(clampSpecials[rng.Intn(len(clampSpecials))])
				if v != v {
					v = math.Float32frombits(0xFFC00000)
				}
				s[i] = v
			}
		}
	}
	for _, batch := range []int{1, 2, 3, 16, 128, 129} {
		for _, out := range []int{1, 7, 8, 9, 31, 32, 33, 64, 70} {
			for _, in := range []int{1, 5, 37} {
				for _, limit := range []float32{1e-3, 2, float32(math.Inf(1))} {
					x := randSlice(rng, batch*in)
					dy := randSlice(rng, batch*out)
					w0 := randSlice(rng, in*out)
					special(x)
					special(w0)
					specialZeros(rng, x, dy)
					eachArm(func(arm string) {
						want := append([]float32(nil), w0...)
						outerStepSequence(want, x, dy, batch, in, out, -0.05, limit)
						got := append([]float32(nil), w0...)
						OuterStep(got, x, dy, 0, in, batch, in, out, -0.05, limit)
						if i := firstDiff(got, want); i >= 0 {
							t.Fatalf("OuterStep(batch %d, %dx%d, limit %v) [%s]: w[%d]=%#08x want %#08x",
								batch, in, out, limit, arm, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
						if in < 3 {
							return
						}
						part := append([]float32(nil), w0...)
						OuterStep(part, x, dy, 1, in-1, batch, in, out, -0.05, limit)
						for i := range part {
							ref := want[i]
							if r := i / out; r == 0 || r == in-1 {
								ref = w0[i]
							}
							if math.Float32bits(part[i]) != math.Float32bits(ref) {
								t.Fatalf("OuterStep rows [1,%d) (batch %d, %dx%d) [%s]: w[%d]=%#08x want %#08x",
									in-1, batch, in, out, arm, i, math.Float32bits(part[i]), math.Float32bits(ref))
							}
						}
					})
				}
			}
		}
	}
}

// firstDiff returns the first index where a and b differ in bits, or -1.
func firstDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestOuterStepRejectsNonPositiveLimit(t *testing.T) {
	for _, limit := range []float32{0, -1, float32(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("OuterStep(limit=%v) did not panic", limit)
				}
			}()
			OuterStep(make([]float32, 8), make([]float32, 1), make([]float32, 8), 0, 1, 1, 1, 8, -1, limit)
		}()
	}
}

// selectSpecials are the inputs the ReLU and pool kernels' bit contract
// names: both zeros, NaNs of both signs with distinct payloads (quiet
// and signaling), both infinities, subnormals, and small integers that
// make ties common.
var selectSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7FC00001, 0xFFC00002, 0x7FA00003, 0xFF800004, 0x7FFFFFFF, // NaNs
	0x7F800000, 0xFF800000, // ±Inf
	0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, // subnormals
	0x3F800000, 0x3F800000, 0x40000000, 0xBF800000, // 1, 1, 2, -1
}

// selectInput draws n values: a third normal noise, a third specials
// and a third rectified noise, so ties at +0 are everywhere.
func selectInput(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		switch rng.Intn(3) {
		case 0:
			x[i] = float32(rng.NormFloat64())
		case 1:
			x[i] = math.Float32frombits(selectSpecials[rng.Intn(len(selectSpecials))])
		default:
			x[i] = max(float32(rng.NormFloat64()), 0)
		}
	}
	return x
}

// reluRef is ReLU's branching reference: v where v > 0, else +0.
func reluRef(dst, x []float32) {
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// reluGradRef passes g where y > 0, else +0.
func reluGradRef(dx, g, y []float32) {
	for i, v := range y {
		if v > 0 {
			dx[i] = g[i]
		} else {
			dx[i] = 0
		}
	}
}

// poolRef is the 2×2 pool's branching reference over rows×w: each
// window's chain visits (0,0), (0,1), (1,0), (1,1) and moves on a
// strict >. It returns the outputs and each output's winning index.
func poolRef(x []float32, rows, w int) (out []float32, win []int) {
	ow := w / 2
	out = make([]float32, rows/2*ow)
	win = make([]int, len(out))
	for p := 0; p < rows/2; p++ {
		for q := 0; q < ow; q++ {
			top := 2*p*w + 2*q
			best := top
			for _, i := range []int{top + 1, top + w, top + w + 1} {
				if x[i] > x[best] {
					best = i
				}
			}
			out[p*ow+q], win[p*ow+q] = x[best], best
		}
	}
	return out, win
}

// poolGradRef zeroes dx and adds each output's gradient at its winner.
func poolGradRef(g []float32, win []int, n int) []float32 {
	dx := make([]float32, n)
	for o, i := range win {
		dx[i] += g[o]
	}
	return dx
}

// checkSelectKernels runs the four kernels on x (a rows×w stack) and
// gradient draws g (len rows·w) and gp (len rows·w/4) on every arm and
// holds each to its reference bit for bit. The outputs start as a NaN
// pattern, so an element a kernel skips shows up.
func checkSelectKernels(t *testing.T, x, g, gp []float32, rows, w int) {
	t.Helper()
	wantY := make([]float32, len(x))
	reluRef(wantY, x)
	wantDX := make([]float32, len(x))
	reluGradRef(wantDX, g, wantY)
	wantP, win := poolRef(x, rows, w)
	wantPDX := poolGradRef(gp, win, len(x))
	dirty := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = math.Float32frombits(0x7FBADBAD)
		}
		return s
	}
	eachArm(func(arm string) {
		for _, c := range []struct {
			name string
			want []float32
			run  func(got []float32)
		}{
			{"ReLU", wantY, func(got []float32) { ReLU(got, x) }},
			{"ReLUGrad", wantDX, func(got []float32) { ReLUGrad(got, g, wantY) }},
			{"MaxPool2x2", wantP, func(got []float32) { MaxPool2x2(got, x, rows, w) }},
			{"MaxPool2x2Grad", wantPDX, func(got []float32) { MaxPool2x2Grad(got, gp, x, rows, w) }},
		} {
			got := dirty(len(c.want))
			c.run(got)
			if i := firstDiff(got, c.want); i >= 0 {
				t.Fatalf("%s rows=%d w=%d [%s]: [%d] = %#08x, want %#08x",
					c.name, rows, w, arm, i, math.Float32bits(got[i]), math.Float32bits(c.want[i]))
			}
		}
	})
}

// TestSelectKernelsMatchReference holds ReLU, ReLUGrad, MaxPool2x2 and
// MaxPool2x2Grad to their branching references on every arm. Widths 2,
// 4 and 6 run scalar; width 8 pairs two row pairs per vector, so odd
// row-pair counts leave it a scalar tail; 16, 32 and 48 are whole
// groups and 24 a group plus a scalar half. The inputs mix specials
// and ties, and the slices start at every 4-byte offset of a vector.
func TestSelectKernelsMatchReference(t *testing.T) {
	t.Logf("arms: %v", Arms())
	rng := rand.New(rand.NewSource(13))
	for _, w := range []int{2, 4, 6, 8, 16, 24, 32, 48} {
		for _, pairs := range []int{1, 2, 3, 4, 7, 8} {
			rows := 2 * pairs
			off := rng.Intn(8)
			x := selectInput(rng, off+rows*w)[off:]
			checkSelectKernels(t, x, selectInput(rng, rows*w), selectInput(rng, rows*w/4), rows, w)
		}
	}
	// Every ReLU length up to five vectors, so the four-vector block,
	// the single-vector strip and the scalar tail all meet.
	for n := 0; n <= 45; n++ {
		x := selectInput(rng, n)
		g := selectInput(rng, n)
		want := make([]float32, n)
		reluRef(want, x)
		wantDX := make([]float32, n)
		reluGradRef(wantDX, g, want)
		eachArm(func(arm string) {
			got := make([]float32, n)
			ReLU(got, x)
			dx := make([]float32, n)
			ReLUGrad(dx, g, want)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("ReLU n=%d [%s]: [%d] = %#08x, want %#08x", n, arm, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
			if i := firstDiff(dx, wantDX); i >= 0 {
				t.Fatalf("ReLUGrad n=%d [%s]: [%d] = %#08x, want %#08x", n, arm, i, math.Float32bits(dx[i]), math.Float32bits(wantDX[i]))
			}
		})
	}
}

// TestMaxPool2x2TieOrder pins the chain's order on hand-written
// windows in every lane of a vector group: the first of equal maxima
// wins, a NaN at (0,0) wins, a later NaN never does, and between the
// zeros the first one wins. The gradient lands only at the winner.
func TestMaxPool2x2TieOrder(t *testing.T) {
	nan := math.Float32frombits(0x7FC00005)
	negZero := math.Float32frombits(0x80000000)
	inf := float32(math.Inf(1))
	windows := []struct {
		win [4]float32 // (0,0), (0,1), (1,0), (1,1)
		at  int
	}{
		{[4]float32{1, 1, 1, 1}, 0},
		{[4]float32{0, 2, 2, 1}, 1},
		{[4]float32{0, 1, 3, 3}, 2},
		{[4]float32{0, 1, 2, 3}, 3},
		{[4]float32{negZero, 0, 0, negZero}, 0},
		{[4]float32{nan, 5, 6, 7}, 0},
		{[4]float32{1, nan, 0, nan}, 0},
		{[4]float32{1, inf, inf, 2}, 1},
	}
	for _, w := range []int{8, 16} {
		// One window per output of a rows×w stack, the list repeated
		// and rotated so every case meets every lane.
		rows := 2 * 32 / (w / 2)
		x := make([]float32, rows*w)
		g := make([]float32, rows*w/4)
		for o := range g {
			c := windows[(o+o/len(windows))%len(windows)]
			p, q := o/(w/2), o%(w/2)
			top := 2*p*w + 2*q
			x[top], x[top+1], x[top+w], x[top+w+1] = c.win[0], c.win[1], c.win[2], c.win[3]
			g[o] = float32(o + 1)
		}
		eachArm(func(arm string) {
			out := make([]float32, len(g))
			MaxPool2x2(out, x, rows, w)
			dx := make([]float32, len(x))
			MaxPool2x2Grad(dx, g, x, rows, w)
			for o := range g {
				c := windows[(o+o/len(windows))%len(windows)]
				p, q := o/(w/2), o%(w/2)
				top := 2*p*w + 2*q
				pos := [4]int{top, top + 1, top + w, top + w + 1}
				if math.Float32bits(out[o]) != math.Float32bits(c.win[c.at]) {
					t.Fatalf("w=%d [%s] window %v: max %#08x, want %#08x", w, arm, c.win, math.Float32bits(out[o]), math.Float32bits(c.win[c.at]))
				}
				for k, i := range pos {
					want := float32(0)
					if k == c.at {
						want = g[o]
					}
					if math.Float32bits(dx[i]) != math.Float32bits(want) {
						t.Fatalf("w=%d [%s] window %v: dx at %d = %v, want %v", w, arm, c.win, k, dx[i], want)
					}
				}
			}
		})
	}
}

func TestSelectKernelsRejectBadShapes(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"ReLU", func() { ReLU(make([]float32, 3), make([]float32, 4)) }},
		{"ReLUGrad", func() { ReLUGrad(make([]float32, 4), make([]float32, 3), make([]float32, 4)) }},
		{"MaxPool2x2 odd w", func() { MaxPool2x2(make([]float32, 2), make([]float32, 6), 2, 3) }},
		{"MaxPool2x2 odd rows", func() { MaxPool2x2(make([]float32, 3), make([]float32, 12), 3, 4) }},
		{"MaxPool2x2 short dst", func() { MaxPool2x2(make([]float32, 1), make([]float32, 8), 2, 4) }},
		{"MaxPool2x2Grad short dx", func() { MaxPool2x2Grad(make([]float32, 7), make([]float32, 2), make([]float32, 8), 2, 4) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

// boxMullerRef is rng.Norm's transform of one (u, v) pair as
// NormFloat32 returns it: the cosine variate, then the cached sine.
func boxMullerRef(u, v float64) (c, s float32) {
	mag := math.Sqrt(-2 * math.Log(u))
	return float32(mag * math.Cos(2*math.Pi*v)), float32(mag * math.Sin(2*math.Pi*v))
}

// checkBoxMuller runs BoxMuller32 over the pairs on every arm and
// holds each output bit-identical to boxMullerRef.
func checkBoxMuller(t *testing.T, u, v []float64) {
	t.Helper()
	want := make([]float32, 2*len(u))
	for i := range u {
		want[2*i], want[2*i+1] = boxMullerRef(u[i], v[i])
	}
	got := make([]float32, len(want))
	eachArm(func(arm string) {
		clear(got)
		BoxMuller32(got, u, v)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("BoxMuller32 [%s]: pair %d (u=%v %#x, v=%v %#x) out[%d] = %v, math %v",
					arm, i/2, u[i/2], math.Float64bits(u[i/2]), v[i/2], math.Float64bits(v[i/2]),
					i%2, got[i], want[i])
			}
		}
	})
}

// boxMullerEdges returns the planted inputs: u at 2⁻⁵³ and 1−2⁻⁵³, at
// every power of two in (0, 1) and at HSqrt2 (√2/2 rounded) times each,
// with its float neighbours, where log's frexp decides between two
// reductions; v at 0, 1−2⁻⁵³ and every octant boundary k/8 with its
// neighbours, where sin and cos change polynomial and sign.
func boxMullerEdges() (us, vs []float64) {
	const hsqrt2 = 7.07106781186547524401e-01
	us = []float64{0x1p-53, 1 - 0x1p-53, 0.5 - 0x1p-54, 0.5 + 0x1p-53}
	for e := 0; e <= 53; e++ {
		p := math.Ldexp(1, -e)
		h := hsqrt2 * p
		us = append(us, h, math.Nextafter(h, 0), math.Nextafter(h, 1))
		if e > 0 {
			us = append(us, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
		}
	}
	vs = []float64{0, 0x1p-53, 1 - 0x1p-53}
	for k := 1; k < 8; k++ {
		b := float64(k) / 8
		lo, hi := b, b
		vs = append(vs, b)
		for s := 0; s < 3; s++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			vs = append(vs, lo, hi)
		}
	}
	return us, vs
}

// splitMix64 is rng's generator, restated: this package's tests cannot
// import rng, which imports this package.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestBoxMullerMatchesMath holds every arm of BoxMuller32 bit for bit to
// the math package: 2²² pairs drawn as Norm draws them, and every
// planted u against every planted v at lengths that leave each tail
// size behind the four-pair vector loop. Then it holds
// BoxMullerSplitMix32 to the same on its own stream draws.
func TestBoxMullerMatchesMath(t *testing.T) {
	t.Logf("arms: %v", Arms())
	us, vs := boxMullerEdges()
	var u, v []float64
	for _, a := range us {
		for _, b := range vs {
			u, v = append(u, a), append(v, b)
		}
	}
	whole := len(u)&^3 - 4
	for tail := 0; tail < 4; tail++ {
		checkBoxMuller(t, u[:whole+tail], v[:whole+tail])
	}
	const pairs, block = 1 << 22, 1 << 14
	u, v = make([]float64, block), make([]float64, block)
	state := uint64(1)
	for done := 0; done < pairs; done += block {
		for i := range u {
			for u[i] == 0 {
				u[i] = float64(splitMix64(&state)>>11) / (1 << 53)
			}
			v[i] = float64(splitMix64(&state)>>11) / (1 << 53)
		}
		checkBoxMuller(t, u, v)
		clear(u)
	}

	// The zmm noise kernel, which draws its own pairs: 2²² pairs of one
	// stream, every room from 0 to 25 pairs, and a zero u planted at
	// each lane of the first and second block from a finalizer output
	// of 0 and of 2¹¹−1 (both a zero u after the shift), with 2¹¹ (u =
	// 2⁻⁵³, which Norm keeps) beside them.
	t.Logf("zmm noise kernel: %v", hasBMAVX512)
	gamma := uint64(0x9e3779b97f4a7c15)
	for np := 0; np <= 25; np++ {
		checkBoxMullerSplitMix(t, 1, np)
	}
	s := uint64(7)
	for done := 0; done < pairs; done += block {
		checkBoxMullerSplitMix(t, s, block)
		s += uint64(2*block) * gamma
	}
	for _, z := range []uint64{0, 1<<11 - 1, 1 << 11} {
		for p := 0; p < 16; p++ {
			checkBoxMullerSplitMix(t, unmixSplitMix(z)-uint64(2*p+1)*gamma, 32)
		}
	}
}

// unmixSplitMix inverts splitMix64's finalizer: the draw from state
// unmixSplitMix(z) - γ is z. Every step of the finalizer is a bijection
// (xor-shifts and odd multipliers), so a test can plant any output,
// a zero u for instance, at any position of a stream.
func unmixSplitMix(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := uint(0); i < 64/s+1; i++ {
			x = y ^ (x >> s)
		}
		return x
	}
	inverse := func(m uint64) uint64 { // Newton's iteration, mod 2^64
		inv := m
		for i := 0; i < 5; i++ {
			inv *= 2 - m*inv
		}
		return inv
	}
	z = unshift(z, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// checkBoxMullerSplitMix runs BoxMullerSplitMix32 from state s with
// room for np pairs on every arm. The zmm arm must write the whole
// eight-pair blocks before the first block with a zero u, each pair bit
// for bit boxMullerRef of its two stream draws, and leave the rest of
// dst alone; every other arm must write nothing and return 0.
func checkBoxMullerSplitMix(t *testing.T, s uint64, np int) {
	t.Helper()
	var want []float32
	st := s
	for blocks := np / 8; blocks > 0; blocks-- {
		var block [16]float32
		zero := false
		for i := 0; i < 8; i++ {
			u := float64(splitMix64(&st)>>11) / (1 << 53)
			v := float64(splitMix64(&st)>>11) / (1 << 53)
			zero = zero || u == 0
			block[2*i], block[2*i+1] = boxMullerRef(u, v)
		}
		if zero {
			break
		}
		want = append(want, block[:]...)
	}
	const canary = 0x7fc0dead
	got := make([]float32, 2*np)
	eachArm(func(arm string) {
		for i := range got {
			got[i] = math.Float32frombits(canary)
		}
		pairs := BoxMullerSplitMix32(got, s)
		wantPairs := 0
		if arm == "avx512" && hasBMAVX512 {
			wantPairs = len(want) / 2
		}
		if pairs != wantPairs {
			t.Fatalf("BoxMullerSplitMix32 [%s] from %#x, %d pairs of room: wrote %d pairs, want %d", arm, s, np, pairs, wantPairs)
		}
		for i, g := range got {
			if i < 2*pairs && math.Float32bits(g) != math.Float32bits(want[i]) {
				t.Fatalf("BoxMullerSplitMix32 [%s] from %#x: out[%d] = %v, math %v", arm, s, i, g, want[i])
			}
			if i >= 2*pairs && math.Float32bits(g) != canary {
				t.Fatalf("BoxMullerSplitMix32 [%s] from %#x: wrote out[%d] past its %d pairs", arm, s, i, pairs)
			}
		}
	})
}

func TestBoxMullerRejectsBadLengths(t *testing.T) {
	for _, c := range []struct{ dst, u, v int }{{8, 4, 3}, {7, 4, 4}, {10, 4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BoxMuller32(dst %d, u %d, v %d) did not panic", c.dst, c.u, c.v)
				}
			}()
			BoxMuller32(make([]float32, c.dst), make([]float64, c.u), make([]float64, c.v))
		}()
	}
}
