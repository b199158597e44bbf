package tensor

import (
	"math/rand"
	"testing"

	"medsplit/internal/tensor/kernels"
)

// TestMatMulF16IntoMatchesUnpacked pins the documented contract: the
// panel-widening f16 GEMM is bit-identical to widening b in full and
// running the f32 engine, on both the vector and generic dispatch.
func TestMatMulF16IntoMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {13, 129, 9},
		{4, 257, 31}, {32, 64, 40}, {2, 1000, 17},
	}
	for _, arm := range []string{"", "generic"} {
		kernels.UseArm(arm)
		for _, s := range shapes {
			a := New(s.m, s.k)
			bf := New(s.k, s.n)
			for i := range a.data {
				a.data[i] = rng.Float32()*4 - 2
			}
			for i := range bf.data {
				bf.data[i] = rng.Float32()*4 - 2
			}
			b := PackF16(bf)

			got := New(s.m, s.n)
			MatMulF16Into(got, a, b)
			want := MatMul(a, b.Unpack())
			for i := range want.data {
				if got.data[i] != want.data[i] {
					t.Fatalf("arm=%q %dx%dx%d: elem %d got %v want %v",
						arm, s.m, s.k, s.n, i, got.data[i], want.data[i])
				}
			}
		}
	}
	kernels.UseArm("")
}

// TestPackF16RoundTrip checks that values exactly representable in f16
// survive pack/unpack unchanged and that shape metadata carries over.
func TestPackF16RoundTrip(t *testing.T) {
	src := FromSlice([]float32{0, 1, -1, 0.5, 2048, -0.25, 65504, 1.0 / 1024}, 2, 4)
	m := PackF16(src)
	if m.Rows() != 2 || m.Cols() != 4 || m.SizeBytes() != 16 {
		t.Fatalf("metadata: rows=%d cols=%d bytes=%d", m.Rows(), m.Cols(), m.SizeBytes())
	}
	got := m.Unpack()
	for i, want := range src.data {
		if got.data[i] != want {
			t.Fatalf("elem %d: got %v want %v", i, got.data[i], want)
		}
	}
}
