package rng

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"medsplit/internal/tensor/kernels"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not replay the parent stream.
	p := New(7)
	p.Uint64() // advance past the Split draw
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child stream tracks parent at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for k, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d: %d draws, want ~%d (±5%%)", k, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32() = %v out of [0,1)", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(17)
	p := []int{5, 5, 7, 9, 9, 9}
	r.Shuffle(p)
	counts := map[int]int{}
	for _, v := range p {
		counts[v]++
	}
	if counts[5] != 2 || counts[7] != 1 || counts[9] != 3 {
		t.Fatalf("Shuffle changed multiset: %v", p)
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(19)
	for _, alpha := range []float64{0.1, 0.5, 1, 10} {
		out := make([]float64, 10)
		r.Dirichlet(alpha, out)
		var sum float64
		for _, v := range out {
			if v < 0 {
				t.Fatalf("alpha=%v: negative probability %v", alpha, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("alpha=%v: probabilities sum to %v", alpha, sum)
		}
	}
}

func TestDirichletSkewIncreasesAsAlphaShrinks(t *testing.T) {
	r := New(23)
	maxAt := func(alpha float64) float64 {
		// Average the max probability over several draws.
		var total float64
		const reps = 50
		out := make([]float64, 10)
		for i := 0; i < reps; i++ {
			r.Dirichlet(alpha, out)
			m := 0.0
			for _, v := range out {
				if v > m {
					m = v
				}
			}
			total += m
		}
		return total / reps
	}
	skewed := maxAt(0.1)
	flat := maxAt(100)
	if skewed <= flat {
		t.Fatalf("max probability at alpha=0.1 (%v) should exceed alpha=100 (%v)", skewed, flat)
	}
}

func TestMul64AgainstBigProducts(t *testing.T) {
	// Property: mul64 must agree with the 128-bit product computed via
	// decomposition into 32-bit halves using big-friendly arithmetic.
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via a second independent decomposition.
		aLo, aHi := a&0xffffffff, a>>32
		bLo, bHi := b&0xffffffff, b>>32
		lo2 := a * b // wrap-around low 64 bits
		carry := ((aLo*bLo)>>32 + (aHi*bLo)&0xffffffff + (aLo*bHi)&0xffffffff) >> 32
		hi2 := aHi*bHi + (aHi*bLo)>>32 + (aLo*bHi)>>32 + carry
		return lo == lo2 && hi == hi2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat32Finite(t *testing.T) {
	r := New(29)
	for i := 0; i < 10000; i++ {
		v := r.NormFloat32()
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("NormFloat32 produced %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}

// BenchmarkNormFloat32s draws one synthetic sample's noise, 3072
// variates, per op, on every kernel arm of the host.
func BenchmarkNormFloat32s(b *testing.B) {
	defer kernels.UseArm("")
	for _, arm := range kernels.Arms() {
		b.Run(arm, func(b *testing.B) {
			kernels.UseArm(arm)
			r := New(1)
			dst := make([]float32, 3072)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.NormFloat32s(dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(dst)*b.N), "ns/variate")
		})
	}
}

func BenchmarkSkipNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.SkipNorm(3072)
	}
}

// A restored RNG must continue the stream exactly where the snapshot
// was taken — including the Box-Muller spare, which Norm caches between
// calls.
func TestSnapshotRestoreResumesStream(t *testing.T) {
	r := New(99)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	r.Norm() // leaves a cached spare variate
	snap := r.Snapshot()
	if !snap.HasCachedNorm {
		t.Fatal("snapshot lost the cached Box-Muller spare")
	}

	var want []uint64
	var wantNorm []float64
	for i := 0; i < 50; i++ {
		want = append(want, r.Uint64())
		wantNorm = append(wantNorm, r.Norm())
	}

	r2 := New(0)
	r2.Restore(snap)
	for i := 0; i < 50; i++ {
		if got := r2.Uint64(); got != want[i] {
			t.Fatalf("Uint64 %d: restored stream %d, want %d", i, got, want[i])
		}
		if got := r2.Norm(); got != wantNorm[i] {
			t.Fatalf("Norm %d: restored stream %v, want %v", i, got, wantNorm[i])
		}
	}
}

// unmix inverts Uint64's finalizer: New(unmix(z) - gamma).Uint64() == z.
// Every step of the finalizer is a bijection (xor-shifts and odd
// multipliers), which is what lets a test place a chosen output, such
// as a zero u for Norm, at any position of a stream.
func unmix(z uint64) uint64 {
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

type streamStart struct {
	name  string
	state uint64
}

// zeroUStarts returns two plain seeds and streams with an output
// planted at each of the first twelve draws. Outputs below 2^11 make
// Float64 return 0, so Norm redraws them as u; 2^11 is the smallest
// that it keeps.
func zeroUStarts() []streamStart {
	starts := []streamStart{{"seed 1", 1}, {"seed 0xdead", 0xdead}}
	for _, z := range []uint64{0, 1<<11 - 1, 1 << 11} {
		for d := 0; d < 12; d++ {
			starts = append(starts, streamStart{fmt.Sprintf("output %d at draw %d", z, d), unmix(z) - uint64(d+1)*gamma})
		}
	}
	return starts
}

// TestSkipNormMatchesNorm holds SkipNorm(n) to n Norm calls: the same
// snapshot afterwards, and the same bits from a mixed run of draws.
// Starts cover a cached and an uncached spare, odd and even n, and
// streams with a zero u planted at each early position, so Norm's u
// retry is taken wherever a u can fall, inside the skipped pairs and in
// the last one.
func TestSkipNormMatchesNorm(t *testing.T) {
	if got := New(unmix(0) - gamma).Uint64(); got != 0 {
		t.Fatalf("unmix(0) does not invert the finalizer: draw %#x", got)
	}
	starts := zeroUStarts()
	mixed := func(r *RNG) []uint64 {
		var out []uint64
		for i := 0; i < 9; i++ {
			out = append(out, math.Float64bits(r.Norm()), r.Uint64(), uint64(r.Intn(7)),
				math.Float64bits(r.Norm()), uint64(math.Float32bits(r.Float32())))
		}
		return out
	}
	for _, s := range starts {
		for _, cached := range []bool{false, true} {
			for n := 0; n <= 21; n++ {
				skip, serial := New(s.state), New(s.state)
				if cached {
					skip.Norm()
					serial.Norm()
				}
				skip.SkipNorm(n)
				for i := 0; i < n; i++ {
					serial.Norm()
				}
				if skip.Snapshot() != serial.Snapshot() {
					t.Fatalf("%s, cached %v, n=%d: SkipNorm left %+v, Norm %+v", s.name, cached, n, skip.Snapshot(), serial.Snapshot())
				}
				if a, b := mixed(skip), mixed(serial); !slices.Equal(a, b) {
					t.Fatalf("%s, cached %v, n=%d: draws after SkipNorm differ from draws after Norm", s.name, cached, n)
				}
			}
		}
	}
	for _, n := range []int{1000, 1001, 3072} {
		skip, serial := New(uint64(n)), New(uint64(n))
		skip.SkipNorm(n)
		for i := 0; i < n; i++ {
			serial.Norm()
		}
		if skip.Snapshot() != serial.Snapshot() {
			t.Fatalf("n=%d: SkipNorm left %+v, Norm %+v", n, skip.Snapshot(), serial.Snapshot())
		}
	}
}

// TestNormFloat32sMatchesNorm holds NormFloat32s to as many NormFloat32
// calls: the same bits out and the same snapshot after, on every kernel
// arm of the host. Lengths cover every tail up to 21 and one synthetic
// sample's 3072 with a variate either side, which span several kernel
// blocks; starts cover a cached and an uncached spare, the planted zero
// u's of zeroUStarts, and a zero u at each lane of the zmm noise
// kernel's second eight-pair block (pair 8+l's u is draw 16+2l of an
// uncached start, and draw 17+2l of a cached one).
func TestNormFloat32sMatchesNorm(t *testing.T) {
	lengths := []int{3071, 3072, 3073}
	for n := 0; n <= 21; n++ {
		lengths = append(lengths, n)
	}
	starts := zeroUStarts()
	for d := 16; d < 32; d++ {
		starts = append(starts, streamStart{fmt.Sprintf("output 0 at draw %d", d), unmix(0) - uint64(d+1)*gamma})
	}
	lengths = append(lengths, 33, 34, 35)
	defer kernels.UseArm("")
	for _, arm := range kernels.Arms() {
		kernels.UseArm(arm)
		for _, s := range starts {
			for _, cached := range []bool{false, true} {
				for _, n := range lengths {
					got, want := New(s.state), New(s.state)
					if cached {
						got.Norm()
						want.Norm()
					}
					dst := make([]float32, n)
					got.NormFloat32s(dst)
					for i, v := range dst {
						if w := want.NormFloat32(); math.Float32bits(v) != math.Float32bits(w) {
							t.Fatalf("[%s] %s, cached %v, n=%d: variate %d = %v, NormFloat32 %v", arm, s.name, cached, n, i, v, w)
						}
					}
					if got.Snapshot() != want.Snapshot() {
						t.Fatalf("[%s] %s, cached %v, n=%d: NormFloat32s left %+v, NormFloat32 %+v", arm, s.name, cached, n, got.Snapshot(), want.Snapshot())
					}
				}
			}
		}
	}
}
