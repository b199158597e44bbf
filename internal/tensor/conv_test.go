package tensor

import (
	"testing"

	"medsplit/internal/rng"
)

func TestConvOutSize(t *testing.T) {
	cases := []struct {
		in, k, s, p, want int
	}{
		{32, 3, 1, 1, 32}, // "same" conv
		{32, 2, 2, 0, 16}, // 2x2 pool
		{5, 3, 1, 0, 3},
		{7, 3, 2, 1, 4},
		{1, 1, 1, 0, 1},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
	assertPanics(t, "zero stride", func() { ConvOutSize(4, 2, 0, 0) })
	assertPanics(t, "degenerate", func() { ConvOutSize(2, 5, 1, 0) })
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1 and no padding: im2col is a pure layout
	// change; every pixel appears exactly once.
	r := rng.New(1)
	x := randTensor(r, 2, 3, 4, 4)
	cols := Im2Col(x, 1, 1, 1, 0)
	if cols.Dim(0) != 2*4*4 || cols.Dim(1) != 3 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	// Row (n, y, x) must equal the C channel values of that pixel.
	for n := 0; n < 2; n++ {
		for y := 0; y < 4; y++ {
			for xx := 0; xx < 4; xx++ {
				row := cols.Row((n*4+y)*4 + xx)
				for c := 0; c < 3; c++ {
					if row[c] != x.At(n, c, y, xx) {
						t.Fatalf("pixel (%d,%d,%d,%d) mismatch", n, c, y, xx)
					}
				}
			}
		}
	}
}

func TestIm2ColKnown3x3(t *testing.T) {
	// Single 3x3 image, single channel, 2x2 kernel, stride 1, no pad.
	x := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	cols := Im2Col(x, 2, 2, 1, 0)
	want := [][]float32{
		{1, 2, 4, 5},
		{2, 3, 5, 6},
		{4, 5, 7, 8},
		{5, 6, 8, 9},
	}
	for i, w := range want {
		row := cols.Row(i)
		for j := range w {
			if row[j] != w[j] {
				t.Fatalf("row %d = %v, want %v", i, row, w)
			}
		}
	}
}

func TestIm2ColPaddingIsZero(t *testing.T) {
	x := Full(1, 1, 1, 2, 2)
	cols := Im2Col(x, 3, 3, 1, 1)
	// Output is 2x2; the (0,0) output's receptive field has 5 padded
	// zeros (top row, left column) and 4 ones.
	row := cols.Row(0)
	var sum float32
	for _, v := range row {
		sum += v
	}
	if sum != 4 {
		t.Fatalf("padded receptive field sums to %v, want 4 (row %v)", sum, row)
	}
}

// The adjoint identity <im2col(x), g> == <x, col2im(g)> must hold for
// col2im to be the correct convolution backward operator. It is checked
// on the channel-major pair the convolution engine runs.
func TestCol2ImAdjointOfIm2Col(t *testing.T) {
	r := rng.New(2)
	cases := []struct {
		n, c, h, w, kh, kw, stride, pad int
	}{
		{1, 1, 4, 4, 3, 3, 1, 1},
		{2, 3, 8, 8, 3, 3, 1, 1},
		{1, 2, 7, 5, 3, 3, 2, 1},
		{2, 1, 6, 6, 2, 2, 2, 0},
		{1, 4, 5, 5, 5, 5, 1, 2},
	}
	for _, cs := range cases {
		x := randTensor(r, cs.n, cs.c, cs.h, cs.w)
		cols := im2colCM(x, cs.kh, cs.kw, cs.stride, cs.pad)
		g := randTensor(r, cols.Dim(0), cols.Dim(1), cols.Dim(2))
		lhs := Dot(cols, g)
		img := col2imCM(g, cs.n, cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.stride, cs.pad)
		rhs := Dot(x, img)
		diff := lhs - rhs
		if diff > 1e-2 || diff < -1e-2 {
			t.Errorf("adjoint mismatch for %+v: %v vs %v", cs, lhs, rhs)
		}
	}
}

func TestRowsToNCHWRoundTrip(t *testing.T) {
	r := rng.New(3)
	x := randTensor(r, 2, 5, 3, 4)
	rows := NCHWToRows(x)
	if rows.Dim(0) != 2*3*4 || rows.Dim(1) != 5 {
		t.Fatalf("rows shape %v", rows.Shape())
	}
	back := RowsToNCHW(rows, 2, 5, 3, 4)
	if !AllClose(x, back, 0) {
		t.Fatal("NCHW→rows→NCHW is not the identity")
	}
}

func TestIm2ColShapePanics(t *testing.T) {
	assertPanics(t, "rank-3 input", func() { Im2Col(New(1, 2, 3), 1, 1, 1, 0) })
	assertPanics(t, "col2im shape", func() {
		ConvInputGradInto(New(1, 1, 3, 3), New(5, 4), New(1, 1, 2, 2), New(1, 4), 2, 2, 1, 0)
	})
	assertPanics(t, "rows shape", func() { RowsToNCHW(New(5, 2), 1, 2, 2, 2) })
}

func BenchmarkIm2Col32x32(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 8, 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(x, 3, 3, 1, 1)
	}
}
