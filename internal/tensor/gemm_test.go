package tensor

import (
	"fmt"
	"math"
	"testing"

	"medsplit/internal/parallel"
	"medsplit/internal/rng"
	"medsplit/internal/tensor/kernels"
)

// gemmShapes are the differential-test shapes: degenerate, odd, prime,
// power-of-two, just-off-power-of-two, and conv-like (tall-skinny with a
// small contraction) — chosen to hit every register-tile remainder path
// (m%4, n%4) and every k-panel boundary case.
var gemmShapes = [][3]int{
	{1, 1, 1},
	{2, 3, 4},
	{3, 5, 7},
	{7, 3, 5},
	{13, 17, 19},
	{31, 29, 37},
	{64, 64, 64},
	{65, 63, 66},
	{127, 131, 129},
	{128, 27, 16},
	{5, 300, 4},
	{1, 64, 300}, // one output row
	{1, 300, 17}, // one row, k past one KC panel
	{9, 257, 33}, // k past two KC panels
}

// withinOneUlp reports whether got and want are bitwise equal or differ
// by at most one unit in the last place — the tolerance the blocked
// kernels are held to against the naive references (they preserve each
// output element's accumulation order, so they should in fact be
// bit-for-bit on finite data).
func withinOneUlp(got, want float32) bool {
	if got == want {
		return true
	}
	gb, wb := math.Float32bits(got), math.Float32bits(want)
	if gb>>31 != wb>>31 {
		return false
	}
	d := int64(gb&0x7fffffff) - int64(wb&0x7fffffff)
	return d == 1 || d == -1
}

func assertUlpEqual(t *testing.T, tag string, got, want *Tensor) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", tag, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range gd {
		if !withinOneUlp(gd[i], wd[i]) {
			t.Fatalf("%s: element %d = %v, want %v", tag, i, gd[i], wd[i])
		}
	}
}

// runWorkerModes runs fn once serially and once with a forced 4-way
// fan-out, so the differential tests cover the parallel code paths even
// on single-core runners (and under -race).
func runWorkerModes(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("serial", func(t *testing.T) {
		old := parallel.ForcedWorkers
		parallel.ForcedWorkers = 1
		defer func() { parallel.ForcedWorkers = old }()
		fn(t)
	})
	t.Run("workers=4", func(t *testing.T) {
		old := parallel.ForcedWorkers
		parallel.ForcedWorkers = 4
		defer func() { parallel.ForcedWorkers = old }()
		fn(t)
	})
}

// TestBlockedGemmMatchesNaive holds every product form to its naive
// reference bit for bit, on every kernel arm the host has: each output
// element keeps one sequential accumulation chain, whatever the driver
// packs.
func TestBlockedGemmMatchesNaive(t *testing.T) {
	t.Logf("arms: %v", kernels.Arms())
	defer kernels.UseArm("")
	runWorkerModes(t, func(t *testing.T) {
		for _, arm := range kernels.Arms() {
			kernels.UseArm(arm)
			r := rng.New(42)
			for _, s := range gemmShapes {
				m, k, n := s[0], s[1], s[2]
				a := randTensor(r, m, k)
				b := randTensor(r, k, n)
				at := randTensor(r, k, m)
				bt := randTensor(r, n, k)
				tag := fmt.Sprintf(" %v [%s]", s, arm)
				assertBitEqual(t, "MatMul"+tag, MatMul(a, b), MatMulNaive(a, b))
				assertBitEqual(t, "MatMulTA"+tag, MatMulTA(at, b), MatMulTANaive(at, b))
				assertBitEqual(t, "MatMulTB"+tag, MatMulTB(a, bt), MatMulTBNaive(a, bt))
			}
		}
	})
}

// TestBlockedGemmLargeParallel crosses the parallelThreshold so the real
// goroutine fan-out (not just the forced one) is exercised.
func TestBlockedGemmLargeParallel(t *testing.T) {
	old := parallel.ForcedWorkers
	parallel.ForcedWorkers = 4
	defer func() { parallel.ForcedWorkers = old }()
	r := rng.New(7)
	m, k, n := 97, 83, 101 // > parallelThreshold work, prime dims
	a := randTensor(r, m, k)
	b := randTensor(r, k, n)
	at := randTensor(r, k, m)
	bt := randTensor(r, n, k)
	assertBitEqual(t, "MatMul", MatMul(a, b), MatMulNaive(a, b))
	assertBitEqual(t, "MatMulTA", MatMulTA(at, b), MatMulTANaive(at, b))
	assertBitEqual(t, "MatMulTB", MatMulTB(a, bt), MatMulTBNaive(a, bt))
}

// TestGemmIntoOverwritesDirtyBuffers verifies the Into variants fully
// overwrite pooled storage with stale contents.
func TestGemmIntoOverwritesDirtyBuffers(t *testing.T) {
	r := rng.New(3)
	for _, s := range [][3]int{{5, 7, 9}, {8, 16, 12}, {13, 4, 3}} {
		m, k, n := s[0], s[1], s[2]
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		bt := randTensor(r, n, k)

		dirty := func() *Tensor { return Full(999, m, n) }
		got := MatMulInto(dirty(), a, b)
		assertBitEqual(t, "MatMulInto", got, MatMulNaive(a, b))
		got = MatMulTBInto(dirty(), a, bt)
		assertBitEqual(t, "MatMulTBInto", got, MatMulTBNaive(a, bt))
	}
}

// matMulTAAccNaive accumulates dst += aᵀ·b (a [k,m], b [k,n]): one
// sequential chain per element, over a's and b's rows in order,
// starting from dst's value.
func matMulTAAccNaive(dst, a, b *Tensor) {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a.data[p*m+i]
			orow := dst.data[i*n : (i+1)*n]
			for j, bv := range b.data[p*n : (p+1)*n] {
				orow[j] += av * bv
			}
		}
	}
}

func TestMatMulTAAccAccumulates(t *testing.T) {
	r := rng.New(9)
	at := randTensor(r, 11, 6)
	b := randTensor(r, 11, 8)
	base := randTensor(r, 6, 8)
	want := base.Clone()
	matMulTAAccNaive(want, at, b)
	assertBitEqual(t, "MatMulTAAcc", MatMulTAAcc(base.Clone(), at, b), want)
}

func TestSumRowsAcc(t *testing.T) {
	r := rng.New(11)
	x := randTensor(r, 9, 5)
	base := randTensor(r, 5)
	want := Add(base, SumRows(x))
	got := SumRowsAcc(base.Clone(), x)
	if !AllClose(got, want, 1e-6) {
		t.Fatalf("SumRowsAcc = %v, want %v", got, want)
	}
}

func TestEnsureShapeReusesCapacity(t *testing.T) {
	t1 := New(8, 8)
	d1 := t1.Data()
	t2 := EnsureShape(t1, 4, 6)
	if t2.Dim(0) != 4 || t2.Dim(1) != 6 {
		t.Fatalf("EnsureShape shape %v", t2.Shape())
	}
	if &t2.Data()[0] != &d1[0] {
		t.Fatal("EnsureShape reallocated despite sufficient capacity")
	}
	t3 := EnsureShape(t2, 100, 100)
	if t3.Size() != 10000 {
		t.Fatalf("EnsureShape grow size %d", t3.Size())
	}
	if EnsureShape(nil, 2, 2).Size() != 4 {
		t.Fatal("EnsureShape(nil) failed")
	}
}

func TestConcatDim0IntoMatchesConcatDim0(t *testing.T) {
	r := rng.New(5)
	a := randTensor(r, 3, 4, 2)
	b := randTensor(r, 2, 4, 2)
	c := randTensor(r, 5, 4, 2)
	want := ConcatDim0(a, b, c)
	dst := Full(999, 10, 4, 2)
	got := ConcatDim0Into(dst, a, b, c)
	assertUlpEqual(t, "ConcatDim0Into", got, want)
}

// SplitDim0Into must match SplitDim0 whatever scratch it is handed
// (none, too small, reused with a larger batch's storage), and stop
// allocating once the scratch fits.
func TestSplitDim0IntoMatchesSplitDim0(t *testing.T) {
	r := rng.New(6)
	t1 := randTensor(r, 10, 4, 2)
	t2 := randTensor(r, 7, 4, 2)
	var dst []*Tensor
	for _, tc := range []struct {
		src   *Tensor
		sizes []int
	}{{t1, []int{3, 2, 5}}, {t2, []int{3, 1, 2, 1}}, {t1, []int{3, 2, 5}}} {
		dst = SplitDim0Into(dst, tc.src, tc.sizes)
		want := SplitDim0(tc.src, tc.sizes)
		if len(dst) != len(want) {
			t.Fatalf("%d blocks, want %d", len(dst), len(want))
		}
		for i := range want {
			assertUlpEqual(t, "SplitDim0Into", dst[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(10, func() { dst = SplitDim0Into(dst, t1, []int{3, 2, 5}) }); n != 0 {
		t.Fatalf("SplitDim0Into into fitting scratch allocated %v times", n)
	}
}

// TestGemmDstShapePanics pins the Into-variant shape validation.
func TestGemmDstShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto with wrong dst shape did not panic")
		}
	}()
	a := New(2, 3)
	b := New(3, 4)
	MatMulInto(New(2, 5), a, b)
}
