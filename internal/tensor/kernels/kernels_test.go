package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// The tests in this file hold the dispatched implementation (AVX2/NEON
// when the host has it, generic otherwise) to scalar references
// computed in plain Go, and — the forced-fallback guarantee — to the
// generic implementation ForceGeneric selects. For the bit-contract
// kernels the comparison is exact equality; only Dot gets a tolerance.

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

var gemmDims = []struct{ m, k, n int }{
	{1, 1, 1}, {1, 7, 3}, {2, 3, 5}, {3, 128, 8}, {4, 129, 16},
	{5, 64, 7}, {6, 31, 9}, {7, 255, 13}, {8, 128, 8}, {9, 257, 33},
	{13, 17, 19}, {16, 130, 40}, {4, 1, 64}, {1, 300, 65}, {32, 64, 24},
}

func TestGemmPanelMatchesReference(t *testing.T) {
	t.Logf("dispatch: %s", Name())
	rng := rand.New(rand.NewSource(1))
	for _, d := range gemmDims {
		for _, acc := range []bool{false, true} {
			a := randSlice(rng, d.m*d.k)
			b := randSlice(rng, d.k*d.n)
			seed := randSlice(rng, d.m*d.n)

			want := append([]float32(nil), seed...)
			gemmRef(want, a, b, d.m, d.k, d.n, acc)

			got := append([]float32(nil), seed...)
			GemmPanel(got, a, b, 0, d.m, d.k, d.n, 0, acc)

			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("GemmPanel(%dx%dx%d acc=%v) [%s]: out[%d]=%x want %x",
						d.m, d.k, d.n, acc, Name(), i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
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
// host where dispatch selects assembly, routing through ForceGeneric
// must produce byte-identical results for every bit-contract kernel.
// (Under the purego tag both paths are the generic code and the test
// is trivially green.)
func TestForcedFallbackIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if !Active() {
		t.Logf("no assembly dispatch on this host/build; comparing generic to itself")
	}
	for _, d := range gemmDims {
		a := randSlice(rng, d.m*d.k)
		b := randSlice(rng, d.k*d.n)

		fast := make([]float32, d.m*d.n)
		GemmPanel(fast, a, b, 0, d.m, d.k, d.n, 0, false)

		ForceGeneric(true)
		slow := make([]float32, d.m*d.n)
		GemmPanel(slow, a, b, 0, d.m, d.k, d.n, 0, false)
		ForceGeneric(false)

		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("GemmPanel(%dx%dx%d): dispatch %v != generic %v at %d",
					d.m, d.k, d.n, fast[i], slow[i], i)
			}
		}
	}

	for _, n := range []int{1, 7, 8, 31, 32, 33, 100, 1024, 4097} {
		x := randSlice(rng, n)
		y := randSlice(rng, n)

		yFast := append([]float32(nil), y...)
		Axpy(0.37, x, yFast)
		ForceGeneric(true)
		ySlow := append([]float32(nil), y...)
		Axpy(0.37, x, ySlow)
		ForceGeneric(false)
		for i := range yFast {
			if yFast[i] != ySlow[i] {
				t.Fatalf("Axpy n=%d: dispatch %v != generic %v at %d", n, yFast[i], ySlow[i], i)
			}
		}

		src := make([]byte, n)
		rng.Read(src)
		dFast := make([]float32, n)
		Dequantize8(dFast, src, -1.25, 0.013)
		ForceGeneric(true)
		dSlow := make([]float32, n)
		Dequantize8(dSlow, src, -1.25, 0.013)
		ForceGeneric(false)
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
		ForceGeneric(true)
		got := DotI8(a, b)
		ForceGeneric(false)
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
	ForceGeneric(true)
	slow := make([]uint16, len(src))
	F32ToF16(slow, src)
	ForceGeneric(false)
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
// under ForceGeneric and holds both to the retained reference loop,
// bit for bit.
func checkClamp(t *testing.T, x []float32, limit float32) {
	t.Helper()
	want := append([]float32(nil), x...)
	clampGeneric(want, limit)
	for _, generic := range []bool{false, true} {
		got := append([]float32(nil), x...)
		ForceGeneric(generic)
		label := Name()
		Clamp(got, limit)
		ForceGeneric(false)
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
