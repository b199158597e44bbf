package tensor

import (
	"testing"
	"testing/quick"

	"medsplit/internal/rng"
)

// Randomized algebraic properties of the tensor kernels, via
// testing/quick. Each property seeds its own generator from the quick
// inputs so failures are reproducible.

func quickTensor(seed uint64, maxDim int) *Tensor {
	r := rng.New(seed)
	rows, cols := 1+r.Intn(maxDim), 1+r.Intn(maxDim)
	t := New(rows, cols)
	t.FillNormal(r, 0, 1)
	return t
}

func TestPropertyAddCommutes(t *testing.T) {
	f := func(seed uint64) bool {
		a := quickTensor(seed, 8)
		b := New(a.Shape()...)
		b.FillNormal(rng.New(seed^0xbeef), 0, 1)
		return AllClose(Add(a, b), Add(b, a), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAddSubInverse(t *testing.T) {
	f := func(seed uint64) bool {
		a := quickTensor(seed, 8)
		b := New(a.Shape()...)
		b.FillNormal(rng.New(seed^0xcafe), 0, 1)
		return AllClose(Sub(Add(a, b), b), a, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScaleLinearity(t *testing.T) {
	// s*(a+b) == s*a + s*b
	f := func(seed uint64, sRaw int8) bool {
		s := float32(sRaw) / 16
		a := quickTensor(seed, 8)
		b := New(a.Shape()...)
		b.FillNormal(rng.New(seed^0xf00d), 0, 1)
		lhs := Scaled(Add(a, b), s)
		rhs := Add(Scaled(a, s), Scaled(b, s))
		return AllClose(lhs, rhs, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMatMulDistributes(t *testing.T) {
	// A·(B+C) == A·B + A·C
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b, c := New(m, k), New(k, n), New(k, n)
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		c.FillNormal(r, 0, 1)
		return AllClose(MatMul(a, Add(b, c)), Add(MatMul(a, b), MatMul(a, c)), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDotSymmetricAndCauchySchwarz(t *testing.T) {
	f := func(seed uint64) bool {
		a := quickTensor(seed, 10)
		b := New(a.Shape()...)
		b.FillNormal(rng.New(seed^0xd00d), 0, 1)
		dot := Dot(a, b)
		if dot != Dot(b, a) {
			return false
		}
		// |<a,b>| <= |a||b| with float tolerance.
		return absf(dot) <= a.Norm()*b.Norm()*(1+1e-5)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySoftmaxRowsAreDistributions(t *testing.T) {
	f := func(seed uint64) bool {
		x := quickTensor(seed, 12)
		s := SoftmaxRows(x)
		for r := 0; r < s.Dim(0); r++ {
			var sum float64
			for c := 0; c < s.Dim(1); c++ {
				v := s.At(r, c)
				if v < 0 || v > 1 {
					return false
				}
				sum += float64(v)
			}
			if sum < 0.999 || sum > 1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyConcatSplitDim0RoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		parts := 1 + r.Intn(4)
		trailing := []int{1 + r.Intn(3), 1 + r.Intn(3)}
		ts := make([]*Tensor, parts)
		sizes := make([]int, parts)
		for i := range ts {
			sizes[i] = 1 + r.Intn(4)
			shape := append([]int{sizes[i]}, trailing...)
			ts[i] = New(shape...)
			ts[i].FillNormal(r, 0, 1)
		}
		cat := ConcatDim0(ts...)
		back := SplitDim0(cat, sizes)
		for i := range ts {
			if !AllClose(ts[i], back[i], 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIm2ColAdjointRandomGeometry(t *testing.T) {
	// <im2col(x), g> == <x, col2im(g)> over random conv geometries, for
	// the channel-major pair the convolution engine runs.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, c := 1+r.Intn(2), 1+r.Intn(3)
		h, w := 3+r.Intn(5), 3+r.Intn(5)
		kh, kw := 1+r.Intn(3), 1+r.Intn(3)
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		if (h+2*pad-kh)/stride+1 <= 0 || (w+2*pad-kw)/stride+1 <= 0 {
			return true // degenerate geometry: skip
		}
		x := New(n, c, h, w)
		x.FillNormal(r, 0, 1)
		cols := im2colCM(x, kh, kw, stride, pad)
		g := New(cols.Shape()...)
		g.FillNormal(r, 0, 1)
		lhs := Dot(cols, g)
		rhs := Dot(x, col2imCM(g, n, c, h, w, kh, kw, stride, pad))
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		scale := absf(lhs)
		if scale < 1 {
			scale = 1
		}
		return diff/scale < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTransposeIsIsometry(t *testing.T) {
	f := func(seed uint64) bool {
		x := quickTensor(seed, 10)
		return absf(Transpose(x).Norm()-x.Norm()) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
