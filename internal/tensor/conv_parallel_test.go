package tensor

import (
	"math"
	"testing"

	"medsplit/internal/rng"
	"medsplit/internal/tensor/kernels"
)

// convGeometries hits stride > 1, pad > 0, non-square images, prime
// dimensions, 1×1 kernels, and kernels larger than the padded remainder.
var convGeometries = []struct {
	n, c, h, w, kh, kw, stride, pad int
}{
	{1, 1, 5, 5, 3, 3, 1, 1},
	{2, 3, 7, 11, 3, 3, 1, 1},
	{3, 2, 13, 13, 5, 5, 2, 2},
	{2, 4, 8, 8, 2, 2, 2, 0},
	{1, 3, 17, 9, 3, 5, 2, 1},
	{5, 1, 6, 6, 1, 1, 1, 0},
	{2, 2, 9, 9, 4, 4, 3, 2},
	{4, 3, 32, 32, 3, 3, 1, 1}, // CIFAR L1 geometry
	{1, 2, 2, 2, 3, 3, 1, 1},   // no whole window: every column overhangs
	{1, 2, 4, 7, 3, 3, 2, 0},   // stride 2 without padding
	// The three convs of the repository benchmark's VGG-lite (width 8,
	// 16 rows): each column matrix is above parallelThreshold, so the
	// workers=4 runs take the real fan-out.
	{16, 3, 32, 32, 3, 3, 1, 1},
	{16, 8, 16, 16, 3, 3, 1, 1},
	{16, 16, 8, 8, 3, 3, 1, 1},
}

// assertBitEqual fails unless got and want hold the same float bits:
// the lowering kernels only move values (col2im adds them in the
// reference's order), so they owe the naive references every bit.
func assertBitEqual(t *testing.T, tag string, got, want *Tensor) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", tag, got.Shape(), want.Shape())
	}
	for i, w := range want.data {
		if math.Float32bits(got.data[i]) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v, want %v", tag, i, got.data[i], w)
		}
	}
}

func TestIm2ColMatchesNaive(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(21)
		for _, g := range convGeometries {
			x := randTensor(r, g.n, g.c, g.h, g.w)
			got := Im2Col(x, g.kh, g.kw, g.stride, g.pad)
			want := Im2ColNaive(x, g.kh, g.kw, g.stride, g.pad)
			assertBitEqual(t, "Im2Col", got, want)

			dirty := Full(999, want.Dim(0), want.Dim(1))
			assertBitEqual(t, "Im2ColInto", Im2ColInto(dirty, x, g.kh, g.kw, g.stride, g.pad), want)
		}
	})
}

func TestCol2ImMatchesNaive(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(22)
		for _, g := range convGeometries {
			oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
			ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
			cols := randTensor(r, g.n*oh*ow, g.c*g.kh*g.kw)
			got := Col2Im(cols, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
			want := Col2ImNaive(cols, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
			assertBitEqual(t, "Col2Im", got, want)

			dirty := Full(999, g.n, g.c, g.h, g.w)
			assertBitEqual(t, "Col2ImInto", Col2ImInto(dirty, cols, g.kh, g.kw, g.stride, g.pad), want)
		}
	})
}

// col2imColumnMajor is Col2ImNaive with the output-position loops
// swapped, (ox, oy) instead of (oy, ox): every pixel receives the same
// terms in a different order. It exists only to prove that
// TestCol2ImKeepsSumOrder's data can tell the two orders apart.
func col2imColumnMajor(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	rowLen := c * kh * kw
	img := New(n, c, h, w)
	for in := 0; in < n; in++ {
		for ox := 0; ox < ow; ox++ {
			for oy := 0; oy < oh; oy++ {
				row := cols.data[((in*oh+oy)*ow+ox)*rowLen:][:rowLen]
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								img.data[((in*c+ch)*h+iy)*w+ix] += row[(ch*kh+ky)*kw+kx]
							}
						}
					}
				}
			}
		}
	}
	return img
}

// TestCol2ImKeepsSumOrder feeds col2im terms of wildly different
// magnitude (±1e8 beside 1), where float addition is far from
// associative: (1e8 + 1) - 1e8 is 0 but (1e8 - 1e8) + 1 is 1. A kernel
// that regrouped or reordered any pixel's sum would miss the naive
// reference by whole units, not ulps.
func TestCol2ImKeepsSumOrder(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(27)
		terms := []float32{1e8, 1, -1e8, 3, -1e8, 1e8, -1}
		for _, g := range convGeometries {
			oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
			ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
			cols := New(g.n*oh*ow, g.c*g.kh*g.kw)
			for i := range cols.data {
				cols.data[i] = terms[r.Intn(len(terms))]
			}
			want := Col2ImNaive(cols, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
			assertBitEqual(t, "Col2Im", Col2Im(cols, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad), want)
			assertBitEqual(t, "Col2ImInto", Col2ImInto(Full(999, g.n, g.c, g.h, g.w), cols, g.kh, g.kw, g.stride, g.pad), want)
		}
		// The data must be able to catch a reorder: swapping the
		// output-position loops changes some pixel at the CIFAR L1
		// geometry.
		g := convGeometries[7]
		oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
		ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
		cols := New(g.n*oh*ow, g.c*g.kh*g.kw)
		for i := range cols.data {
			cols.data[i] = terms[r.Intn(len(terms))]
		}
		want := Col2ImNaive(cols, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		swapped := col2imColumnMajor(cols, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		differs := false
		for i := range want.data {
			differs = differs || want.data[i] != swapped.data[i]
		}
		if !differs {
			t.Fatal("order-sensitive terms produced the same sums in both orders")
		}
	})
}

func TestRepackIntoMatchesNaive(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(23)
		for _, g := range convGeometries {
			oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
			ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
			img := randTensor(r, g.n, g.c, oh, ow)
			rows := NCHWToRows(img)
			back := RowsToNCHW(rows, g.n, g.c, oh, ow)
			assertUlpEqual(t, "rows round-trip", back, img)

			dirtyRows := Full(999, g.n*oh*ow, g.c)
			assertUlpEqual(t, "NCHWToRowsInto", NCHWToRowsInto(dirtyRows, img), rows)
			dirtyImg := Full(999, g.n, g.c, oh, ow)
			assertUlpEqual(t, "RowsToNCHWInto", RowsToNCHWInto(dirtyImg, rows), img)
		}
	})
}

// TestConvGemmIntoMatchesUnfusedPipeline verifies the fused
// GEMM+bias+repack against the naive reference pipeline it replaces:
// rows = cols·wᵀ (naive), bias broadcast, rows→NCHW.
func TestConvGemmIntoMatchesUnfusedPipeline(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(24)
		for _, g := range convGeometries {
			for _, outC := range []int{1, 3, 4, 7, 16} {
				oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
				ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
				x := randTensor(r, g.n, g.c, g.h, g.w)
				w := randTensor(r, outC, g.c*g.kh*g.kw)
				bias := randTensor(r, outC)

				cols := Im2ColNaive(x, g.kh, g.kw, g.stride, g.pad)
				rows := MatMulTBNaive(cols, w)
				rows.AddRowVector(bias)
				want := RowsToNCHW(rows, g.n, outC, oh, ow)

				dst := Full(999, g.n, outC, oh, ow)
				got := ConvGemmInto(dst, Im2Col(x, g.kh, g.kw, g.stride, g.pad), w, bias)
				if !AllClose(got, want, 1e-5) {
					t.Fatalf("ConvGemmInto mismatch at geometry %+v outC=%d", g, outC)
				}
			}
		}
	})
}

// TestConvGemmIntoDispatchBitIdentical pins the kernel-layer conv path
// to the scalar fused kernel bit-for-bit: per output element both run
// one sequential accumulation chain over k, so switching dispatch may
// not change a single bit.
func TestConvGemmIntoDispatchBitIdentical(t *testing.T) {
	r := rng.New(26)
	for _, g := range convGeometries {
		for _, outC := range []int{8, 9, 16} {
			oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
			ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
			x := randTensor(r, g.n, g.c, g.h, g.w)
			w := randTensor(r, outC, g.c*g.kh*g.kw)
			bias := randTensor(r, outC)
			cols := Im2Col(x, g.kh, g.kw, g.stride, g.pad)

			got := ConvGemmInto(Full(999, g.n, outC, oh, ow), cols, w, bias)
			kernels.ForceGeneric(true)
			want := ConvGemmInto(Full(-999, g.n, outC, oh, ow), cols, w, bias)
			kernels.ForceGeneric(false)
			for i := range want.data {
				if got.data[i] != want.data[i] {
					t.Fatalf("geometry %+v outC=%d elem %d: active %v scalar %v",
						g, outC, i, got.data[i], want.data[i])
				}
			}
		}
	}
}

// TestConvGemmIntoNilBias pins the bias-less path.
func TestConvGemmIntoNilBias(t *testing.T) {
	r := rng.New(25)
	x := randTensor(r, 2, 3, 8, 8)
	w := randTensor(r, 5, 27)
	cols := Im2Col(x, 3, 3, 1, 1)
	got := ConvGemmInto(New(2, 5, 8, 8), cols, w, nil)
	want := RowsToNCHW(MatMulTBNaive(cols, w), 2, 5, 8, 8)
	assertUlpEqual(t, "ConvGemmInto nil bias", got, want)
}
