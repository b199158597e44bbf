package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"medsplit/internal/rng"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rng.New(1)
	shapes := [][]int{{1}, {5}, {2, 3}, {4, 1, 7}, {2, 3, 4, 5}, {}}
	for _, shape := range shapes {
		x := randTensor(r, shape...)
		buf := x.AppendTo(nil)
		if len(buf) != x.EncodedSize() {
			t.Fatalf("shape %v: encoded %d bytes, EncodedSize says %d", shape, len(buf), x.EncodedSize())
		}
		y, rest, err := Decode(buf)
		if err != nil {
			t.Fatalf("shape %v: decode: %v", shape, err)
		}
		if len(rest) != 0 {
			t.Fatalf("shape %v: %d leftover bytes", shape, len(rest))
		}
		if !SameShape(x, y) || !AllClose(x, y, 0) {
			t.Fatalf("shape %v: round trip mismatch", shape)
		}
	}
}

// TestEncodeDecodeKeepsBits round-trips −0, ±Inf, subnormals and quiet
// and signalling NaNs with payloads through AppendTo and DecodeInto,
// on the little-endian byte copy and on the per-element loop big-endian
// hosts run, and compares bit patterns: the encoding must be each
// value's little-endian bits, and decoding must return them unchanged.
// The 70 000-element tensor crosses the fan-out threshold, so at four
// workers the copies start mid-tensor.
func TestEncodeDecodeKeepsBits(t *testing.T) {
	specials := []uint32{
		0x80000000, 0x7F800000, 0xFF800000, // −0, +Inf, −Inf
		0x00000001, 0x007FFFFF, 0x80000003, // subnormals
		0x7FC00000, 0x7FC12345, 0xFFC00001, // quiet NaNs
		0x7F800001, 0x7FA00000, 0xFFBFFFFF, // signalling NaNs
		0x3F800000, 0x00000000,
	}
	defer func(v bool) { nativeLE = v }(nativeLE)
	runWorkerModes(t, func(t *testing.T) {
		for _, n := range []int{len(specials), 70000} {
			x := New(n)
			want := make([]byte, 4*n)
			for i := range x.data {
				bits := specials[i%len(specials)]
				x.data[i] = math.Float32frombits(bits)
				binary.LittleEndian.PutUint32(want[4*i:], bits)
			}
			for _, copyPath := range []bool{true, false} {
				nativeLE = copyPath
				buf := x.AppendTo(nil)
				if !bytes.Equal(buf[1+4:], want) {
					t.Fatalf("n=%d copy=%v: encoded floats differ from their little-endian bits", n, copyPath)
				}
				y, rest, err := DecodeInto(Full(7, 3), buf)
				if err != nil {
					t.Fatalf("n=%d copy=%v: decode: %v", n, copyPath, err)
				}
				if len(rest) != 0 || y.Size() != n {
					t.Fatalf("n=%d copy=%v: decoded size %d with %d bytes left", n, copyPath, y.Size(), len(rest))
				}
				for i, v := range y.data {
					if got, w := math.Float32bits(v), specials[i%len(specials)]; got != w {
						t.Fatalf("n=%d copy=%v: element %d decoded to %#08x, want %#08x", n, copyPath, i, got, w)
					}
				}
			}
		}
	})
}

func TestEncodedSizeFor(t *testing.T) {
	if got, want := EncodedSizeFor(4, 5), New(4, 5).EncodedSize(); got != want {
		t.Fatalf("EncodedSizeFor = %d, want %d", got, want)
	}
}

func TestDecodeMultipleConcatenated(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{3, 4, 5, 6}, 2, 2)
	buf := a.AppendTo(nil)
	buf = b.AppendTo(buf)
	a2, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	b2, rest, err := Decode(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
	if !AllClose(a, a2, 0) || !AllClose(b, b2, 0) {
		t.Fatal("concatenated decode mismatch")
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	good := New(2, 2).AppendTo(nil)
	cases := map[string][]byte{
		"empty":           {},
		"truncated shape": good[:3],
		"truncated data":  good[:len(good)-2],
	}
	for name, buf := range cases {
		if _, _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// Zero dimension encoded explicitly.
	bad := []byte{1, 0, 0, 0, 0}
	if _, _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero dim: err = %v, want ErrCorrupt", err)
	}
	// Hostile volume: rank 2 of 65536 x 65536 floats would be 16 GiB.
	hostile := []byte{2, 0, 0, 1, 0, 0, 0, 1, 0}
	if _, _, err := Decode(hostile); !errors.Is(err, ErrCorrupt) {
		t.Errorf("hostile volume: err = %v, want ErrCorrupt", err)
	}
}

// Property: round trip preserves arbitrary float payloads bit-for-bit.
func TestRoundTripProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := FromSlice(append([]float32(nil), vals...), len(vals))
		y, rest, err := Decode(x.AppendTo(nil))
		if err != nil || len(rest) != 0 {
			return false
		}
		for i := range vals {
			// Compare bit patterns so NaN payloads round-trip too.
			if x.Data()[i] != y.Data()[i] && !(x.Data()[i] != x.Data()[i] && y.Data()[i] != y.Data()[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 64, 256)
	buf := make([]byte, 0, x.EncodedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.AppendTo(buf[:0])
	}
	b.SetBytes(int64(x.EncodedSize()))
}

func BenchmarkDecode(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 64, 256)
	buf := x.AppendTo(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}
