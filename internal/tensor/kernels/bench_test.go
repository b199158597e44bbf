package kernels

import (
	"math/rand"
	"slices"
	"testing"
)

// Kernel-level benchmarks, one per microkernel, with one sub-benchmark
// per arm the host has (dispatch pinned by name with UseArm) so the
// speedup is visible in one run. GFLOPS (or GB/s for the converters)
// is attached as a custom metric — cmd/benchjson carries it into the
// committed baselines.

func benchArms(b *testing.B, arms []string, fn func(b *testing.B)) {
	defer UseArm("")
	for _, arm := range arms {
		b.Run(arm, func(b *testing.B) {
			UseArm(arm)
			fn(b)
		})
	}
}

// vectorArms are the arms of the kernels other than the GEMM: AVX-512
// is a GEMM arm only, and under it they run the AVX2 code.
func vectorArms() []string {
	return slices.DeleteFunc(Arms(), func(arm string) bool { return arm == "avx512" })
}

// BenchmarkKernelGemmPanel times two square products and the conv
// weight gradient's shape on the repository benchmark's VGG-lite
// (Gᵀ[K, outC] += colsT·gradᵀ at conv2: K = 72, P = 256, outC = 16).
func BenchmarkKernelGemmPanel(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"64", 64, 64, 64},
		{"256", 256, 256, 256},
		{"72x256x16", 72, 256, 16},
	}
	for _, sh := range shapes {
		m, k, n := sh.m, sh.k, sh.n
		b.Run(sh.name, func(b *testing.B) {
			benchArms(b, Arms(), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				a := randSlice(rng, m*k)
				bb := randSlice(rng, k*n)
				out := make([]float32, m*n)
				b.SetBytes(int64(4 * (m*k + k*n + m*n)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					GemmPanel(out, a, bb, 0, m, k, n, 0, false)
				}
				flops := 2 * int64(m) * int64(k) * int64(n)
				b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		})
	}
}

func BenchmarkKernelDot(b *testing.B) {
	const n = 4096
	benchArms(b, vectorArms(), func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		x := randSlice(rng, n)
		y := randSlice(rng, n)
		b.SetBytes(8 * n)
		b.ResetTimer()
		var s float32
		for i := 0; i < b.N; i++ {
			s += Dot(x, y)
		}
		sink = s
		b.ReportMetric(float64(2*n*b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

func BenchmarkKernelAxpy(b *testing.B) {
	const n = 4096
	benchArms(b, vectorArms(), func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		x := randSlice(rng, n)
		y := randSlice(rng, n)
		b.SetBytes(12 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Axpy(0.001, x, y)
		}
		b.ReportMetric(float64(2*n*b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

// BenchmarkKernelClamp runs at the size of the MLP input layer's weight
// gradient (3072×64), the tensor the platform clips every round. One
// element in 64 lies outside the limit; after the first pass none do,
// which is the steady state of a clipped gradient too.
func BenchmarkKernelClamp(b *testing.B) {
	const n = 3072 * 64
	benchArms(b, vectorArms(), func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		x := randSlice(rng, n)
		b.SetBytes(8 * n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Clamp(x, 2.15)
		}
	})
}

func BenchmarkKernelDotI8(b *testing.B) {
	const n = 4096
	benchArms(b, vectorArms(), func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		x := make([]int8, n)
		y := make([]int8, n)
		for i := range x {
			x[i] = int8(rng.Intn(256) - 128)
			y[i] = int8(rng.Intn(256) - 128)
		}
		b.SetBytes(2 * n)
		b.ResetTimer()
		var s int32
		for i := 0; i < b.N; i++ {
			s += DotI8(x, y)
		}
		sinkI = s
		b.ReportMetric(float64(2*n*b.N)/b.Elapsed().Seconds()/1e9, "GOPS")
	})
}

func BenchmarkKernelF16(b *testing.B) {
	const n = 1 << 16
	b.Run("narrow", func(b *testing.B) {
		benchArms(b, vectorArms(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src := randSlice(rng, n)
			dst := make([]uint16, n)
			b.SetBytes(6 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				F32ToF16(dst, src)
			}
		})
	})
	b.Run("widen", func(b *testing.B) {
		benchArms(b, vectorArms(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			f := randSlice(rng, n)
			src := make([]uint16, n)
			F32ToF16(src, f)
			dst := make([]float32, n)
			b.SetBytes(6 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				F16ToF32(dst, src)
			}
		})
	})
}

func BenchmarkKernelDequant8(b *testing.B) {
	const n = 1 << 16
	benchArms(b, vectorArms(), func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		src := make([]byte, n)
		rng.Read(src)
		dst := make([]float32, n)
		b.SetBytes(5 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Dequantize8(dst, src, -1, 0.0078)
		}
	})
}

var (
	sink  float32
	sinkI int32
)
