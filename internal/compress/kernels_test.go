package compress

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"medsplit/internal/parallel"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/wire"
)

// forceWorkers pins the kernel fan-out for the duration of a test.
func forceWorkers(t *testing.T, n int) {
	t.Helper()
	old := parallel.ForcedWorkers
	parallel.ForcedWorkers = n
	t.Cleanup(func() { parallel.ForcedWorkers = old })
}

// bigTensor crosses parallelThreshold so the fan-out actually splits.
func bigTensor(seed uint64) *tensor.Tensor {
	x := tensor.New(4, 3, 64, 64) // 49152 elements > 1<<15
	x.FillNormal(rng.New(seed), 0, 1)
	return x
}

// TestParallelKernelsBitIdentical holds every chunked kernel to the
// payload the serial path produces, bit for bit: the per-element math
// is unchanged, so worker count must not show up in the bytes.
func TestParallelKernelsBitIdentical(t *testing.T) {
	x := bigTensor(11)
	y := bigTensor(12)
	for _, codec := range []wire.ReusableCodec{wire.RawCodec{}, Float16{}, Int8{}} {
		forceWorkers(t, 1)
		serial := codec.EncodeTensors(x, y)
		forceWorkers(t, 8)
		parallel := codec.EncodeTensors(x, y)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%s: parallel encode differs from serial", codec.Name())
		}
		// Decode side: parallel decode of the serial payload must
		// reproduce the serial decode exactly.
		forceWorkers(t, 1)
		want, err := codec.DecodeTensors(serial)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		forceWorkers(t, 8)
		got, err := codec.DecodeTensors(serial)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		for i := range want {
			if !tensor.AllClose(want[i], got[i], 0) {
				t.Errorf("%s: parallel decode differs from serial (tensor %d)", codec.Name(), i)
			}
		}
	}
}

// TestRangeOfMatchesSerial checks the chunked min/max reduction against
// the scalar pass on sizes around the parallel threshold.
func TestRangeOfMatchesSerial(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 2, 1000, parallelThreshold - 1, parallelThreshold, parallelThreshold + 13, 1 << 17} {
		d := make([]float32, n)
		for i := range d {
			d[i] = float32(r.Norm())
		}
		wantLo, wantHi := rangeOfSerial(d)
		forceWorkers(t, 7)
		lo, hi := rangeOf(d)
		parallel.ForcedWorkers = 0
		if lo != wantLo || hi != wantHi {
			t.Fatalf("n=%d: rangeOf = (%v,%v), serial (%v,%v)", n, lo, hi, wantLo, wantHi)
		}
	}
}

// TestRangeOfKeepsFirstSeenZero holds the chunked reduction to the
// serial pass's bits when the extremes are signed zeros that tie across
// chunk boundaries: the first one seen wins in both.
func TestRangeOfKeepsFirstSeenZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	n := 1 << 16
	for _, workers := range []int{2, 3, 4} {
		for _, first := range []float32{0, negZero} {
			d := make([]float32, n)
			for i := range d {
				d[i] = -first // the other zero everywhere...
			}
			d[0] = first // ...but first in chunk 0
			wantLo, wantHi := rangeOfSerial(d)
			forceWorkers(t, workers)
			lo, hi := rangeOf(d)
			parallel.ForcedWorkers = 0
			if math.Float32bits(lo) != math.Float32bits(wantLo) || math.Float32bits(hi) != math.Float32bits(wantHi) {
				t.Fatalf("%d workers, first %v: rangeOf bits (%#x,%#x), serial (%#x,%#x)", workers, first,
					math.Float32bits(lo), math.Float32bits(hi), math.Float32bits(wantLo), math.Float32bits(wantHi))
			}
		}
	}
}

// refTopKIndices is the original full-sort selection, kept as the
// semantic reference for the quickselect replacement.
func refTopKIndices(d []float32, k int) []int {
	idx := make([]int, len(d))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := d[idx[a]], d[idx[b]]
		if va < 0 {
			va = -va
		}
		if vb < 0 {
			vb = -vb
		}
		return va > vb
	})
	top := idx[:k]
	sort.Ints(top)
	return top
}

// TestQuickselectMatchesSortUnique: with unique magnitudes the kept
// index set is fully determined, so quickselect must match the
// reference sort exactly.
func TestQuickselectMatchesSortUnique(t *testing.T) {
	r := rng.New(4)
	for _, n := range []int{1, 2, 7, 100, 4096, 1 << 16} {
		d := make([]float32, n)
		for i := range d {
			// i-dependent offset keeps magnitudes unique.
			d[i] = float32(r.Norm()) + float32(i)*1e-3
		}
		for _, k := range []int{1, n / 10, n / 2, n} {
			if k < 1 {
				k = 1
			}
			want := refTopKIndices(d, k)
			got := topKIndices(d, k, nil)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: got %d indices, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("n=%d k=%d: index %d: got %d, want %d", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestQuickselectTieTolerance: with exact magnitude ties at the
// selection boundary the index choice is unspecified, but the multiset
// of kept magnitudes must match the reference (the codec's documented
// tolerance).
func TestQuickselectTieTolerance(t *testing.T) {
	// Many exact ties: values drawn from a tiny alphabet.
	r := rng.New(5)
	n := 10000
	d := make([]float32, n)
	vals := []float32{-2, -1, -0.5, 0.5, 1, 2}
	for i := range d {
		d[i] = vals[int(r.Uint64()%uint64(len(vals)))]
	}
	for _, k := range []int{1, 100, n / 3, n} {
		want := refTopKIndices(d, k)
		got := topKIndices(d, k, nil)
		wantMags := make([]float64, len(want))
		gotMags := make([]float64, len(got))
		for i := range want {
			wantMags[i] = math.Abs(float64(d[want[i]]))
			gotMags[i] = math.Abs(float64(d[got[i]]))
		}
		sort.Float64s(wantMags)
		sort.Float64s(gotMags)
		for i := range wantMags {
			if wantMags[i] != gotMags[i] {
				t.Fatalf("k=%d: kept magnitude multiset differs at %d: %v vs %v", k, i, gotMags[i], wantMags[i])
			}
		}
		// Ascending index order is part of the contract.
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("k=%d: indices not strictly ascending at %d", k, i)
			}
		}
	}
}

// TestEncodeIntoMatchesEncode: the Into variants must produce the exact
// bytes of the allocating variants, for every codec, whether appending
// to an empty pooled buffer or after existing bytes.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	x := randTensor(21, 5, 37)
	y := randTensor(22, 3, 3, 3)
	for _, codec := range []wire.ReusableCodec{wire.RawCodec{}, Float16{}, Int8{}, TopK{Fraction: 0.3}} {
		plain := codec.EncodeTensors(x, y)
		var pool wire.BufferPool
		buf := codec.EncodeTensorsInto(pool.Get(len(plain)), x, y)
		if !bytes.Equal(plain, buf) {
			t.Errorf("%s: EncodeTensorsInto differs from EncodeTensors", codec.Name())
		}
		prefixed := codec.EncodeTensorsInto([]byte{0xAA, 0xBB}, x, y)
		if !bytes.Equal(prefixed[2:], plain) {
			t.Errorf("%s: EncodeTensorsInto after prefix differs", codec.Name())
		}
	}
}

// TestDecodeIntoReusesStorage: decoding a same-shape payload into the
// previous round's tensors must reuse their backing arrays — the
// zero-allocation contract of the steady-state round loop.
func TestDecodeIntoReusesStorage(t *testing.T) {
	x := randTensor(23, 6, 50)
	for _, codec := range []wire.ReusableCodec{wire.RawCodec{}, Float16{}, Int8{}, TopK{Fraction: 0.4}} {
		payload := codec.EncodeTensors(x)
		dst, err := codec.DecodeTensorsInto(nil, payload)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		before := &dst[0].Data()[0]
		dst2, err := codec.DecodeTensorsInto(dst, payload)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if &dst2[0].Data()[0] != before {
			t.Errorf("%s: DecodeTensorsInto reallocated same-shape storage", codec.Name())
		}
		want, err := codec.DecodeTensors(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(dst2[0], want[0], 0) {
			t.Errorf("%s: reused decode differs from fresh decode", codec.Name())
		}
	}
}

// TestWideTensorCount: payload counts above 255 survive the round trip
// for every codec (the old one-byte count silently truncated them).
func TestWideTensorCount(t *testing.T) {
	ts := make([]*tensor.Tensor, 300)
	for i := range ts {
		ts[i] = randTensor(uint64(100+i), 2)
	}
	for _, codec := range []wire.ReusableCodec{wire.RawCodec{}, Float16{}, Int8{}, TopK{Fraction: 1}} {
		got, err := codec.DecodeTensors(codec.EncodeTensors(ts...))
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if len(got) != len(ts) {
			t.Fatalf("%s: %d tensors decoded, want %d", codec.Name(), len(got), len(ts))
		}
		// Spot-check a tensor beyond the old 255 ceiling. f16/int8/topk
		// are lossy, so compare shape plus a loose value check.
		if !tensor.SameShape(got[299], ts[299]) {
			t.Fatalf("%s: tensor 299 shape lost", codec.Name())
		}
		if !tensor.AllClose(got[299], ts[299], 0.05) {
			t.Fatalf("%s: tensor 299 values lost", codec.Name())
		}
	}
}

// TestTopKScratchReuseAcrossSizes guards the pooled index scratch: a
// large selection followed by a small one must not leak stale indices.
func TestTopKScratchReuseAcrossSizes(t *testing.T) {
	big := bigTensor(31)
	small := randTensor(32, 3, 4)
	c := TopK{Fraction: 0.5}
	if _, err := c.DecodeTensors(c.EncodeTensors(big)); err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeTensors(c.EncodeTensors(small))
	if err != nil {
		t.Fatal(err)
	}
	// Every nonzero decoded entry must match the source.
	for i, v := range got[0].Data() {
		if v != 0 && v != small.Data()[i] {
			t.Fatalf("entry %d: %v, want %v or 0", i, v, small.Data()[i])
		}
	}
}

func BenchmarkQuickselectVsSort(b *testing.B) {
	x := bigTensor(41)
	d := x.Data()
	k := len(d) / 10
	b.Run("quickselect", func(b *testing.B) {
		var idx []int32
		for i := 0; i < b.N; i++ {
			idx = topKIndices(d, k, idx)
		}
	})
	b.Run("fullsort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refTopKIndices(d, k)
		}
	})
}
