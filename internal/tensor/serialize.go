package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Serialization layout (little-endian):
//
//	uint8   rank
//	uint32  dim[rank]
//	float32 data[volume]
//
// The format is fixed-size given a shape, which lets the wire layer
// pre-compute exact message sizes for communication accounting.
//
// Encode and decode are the split protocol's per-message hot path, so
// both convert in place over pre-sized buffers (no per-element append)
// and fan the conversion loop out across cores for large tensors, and
// DecodeInto reuses caller-owned tensor storage so steady-state rounds
// stop allocating.

// ErrCorrupt is returned when encoded tensor bytes cannot be decoded.
var ErrCorrupt = errors.New("tensor: corrupt encoding")

// maxDecodeElems caps the element count a decoder will allocate,
// protecting servers from hostile or corrupt length prefixes.
const maxDecodeElems = 1 << 28 // 1 GiB of float32

// EncodedSize returns the exact number of bytes AppendTo will write for t.
func (t *Tensor) EncodedSize() int {
	return 1 + 4*len(t.shape) + 4*len(t.data)
}

// EncodedSizeFor returns the encoded size of a tensor with the given
// shape without constructing it.
func EncodedSizeFor(shape ...int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return 1 + 4*len(shape) + 4*n
}

// AppendTo appends t's binary encoding to buf and returns the extended
// slice. The data section is written with a chunked parallel loop for
// large tensors.
func (t *Tensor) AppendTo(buf []byte) []byte {
	if len(t.shape) > 255 {
		panic(fmt.Sprintf("tensor: rank %d exceeds encodable maximum 255", len(t.shape)))
	}
	base := len(buf)
	need := t.EncodedSize()
	buf = growBytes(buf, need)
	buf[base] = byte(len(t.shape))
	off := base + 1
	for _, d := range t.shape {
		binary.LittleEndian.PutUint32(buf[off:], uint32(d))
		off += 4
	}
	putFloats(buf[off:off+4*len(t.data)], t.data)
	return buf
}

// growBytes extends buf by n bytes (reallocating only when capacity is
// short) and returns the extended slice. The reallocation doubles so a
// cold multi-tensor encode copies O(log) times, not once per tensor —
// same policy as the compress codecs' growBytes.
func growBytes(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf[:len(buf)+n]
	}
	out := make([]byte, len(buf)+n, 2*(len(buf)+n))
	copy(out, buf)
	return out
}

// putFloats writes src as little-endian float32 bits into dst
// (len(dst) must be 4*len(src)), fanning out for large tensors. The
// serial guard runs before the closure is built so small tensors pay no
// per-call allocation (see serialRows).
func putFloats(dst []byte, src []float32) {
	if serialRows(len(src), 4*len(src)) {
		putFloatsRange(dst, src, 0, len(src))
		return
	}
	parallelRows(len(src), 4*len(src), func(i0, i1 int) {
		putFloatsRange(dst, src, i0, i1)
	})
}

// nativeLE reports whether float32 memory already has the wire's
// little-endian layout, so that a range converts with one byte copy,
// which keeps every bit, NaN payloads included. Big-endian hosts
// convert element by element. Tests clear it to run that loop here.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views s as its 4·len(s) bytes in memory order.
func floatBytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func putFloatsRange(dst []byte, src []float32, i0, i1 int) {
	if nativeLE {
		copy(dst[4*i0:4*i1], floatBytes(src[i0:i1]))
		return
	}
	for i := i0; i < i1; i++ {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(src[i]))
	}
}

// getFloats reads little-endian float32 bits from src into dst
// (len(src) must be 4*len(dst)), fanning out for large tensors.
func getFloats(dst []float32, src []byte) {
	if serialRows(len(dst), 4*len(dst)) {
		getFloatsRange(dst, src, 0, len(dst))
		return
	}
	parallelRows(len(dst), 4*len(dst), func(i0, i1 int) {
		getFloatsRange(dst, src, i0, i1)
	})
}

func getFloatsRange(dst []float32, src []byte, i0, i1 int) {
	if nativeLE {
		copy(floatBytes(dst[i0:i1]), src[4*i0:4*i1])
		return
	}
	for i := i0; i < i1; i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// Decode parses one tensor from the front of buf, returning the tensor
// and the remaining bytes.
func Decode(buf []byte) (*Tensor, []byte, error) {
	return DecodeInto(nil, buf)
}

// DecodeInto parses one tensor from the front of buf into dst, reusing
// dst's storage when its capacity suffices (dst may be nil, in which
// case a fresh tensor is allocated — Decode is exactly DecodeInto(nil,
// buf)). It returns the decoded tensor (dst when storage was reused)
// and the remaining bytes. The returned tensor never aliases buf, so
// the caller may recycle the payload buffer immediately after decode.
func DecodeInto(dst *Tensor, buf []byte) (*Tensor, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("%w: empty buffer", ErrCorrupt)
	}
	rank := int(buf[0])
	buf = buf[1:]
	if len(buf) < 4*rank {
		return nil, nil, fmt.Errorf("%w: truncated shape (rank %d)", ErrCorrupt, rank)
	}
	vol := 1
	for i := 0; i < rank; i++ {
		d := int(binary.LittleEndian.Uint32(buf[4*i:]))
		if d <= 0 {
			return nil, nil, fmt.Errorf("%w: non-positive dimension %d", ErrCorrupt, d)
		}
		vol *= d
		if vol > maxDecodeElems {
			return nil, nil, fmt.Errorf("%w: volume exceeds decoder cap", ErrCorrupt)
		}
	}
	if len(buf) < 4*rank+4*vol {
		return nil, nil, fmt.Errorf("%w: truncated data (want %d floats, have %d bytes)", ErrCorrupt, vol, len(buf)-4*rank)
	}
	if dst == nil {
		dst = &Tensor{}
	}
	dst.shape = dst.shape[:0]
	for i := 0; i < rank; i++ {
		dst.shape = append(dst.shape, int(binary.LittleEndian.Uint32(buf[4*i:])))
	}
	buf = buf[4*rank:]
	if cap(dst.data) >= vol {
		dst.data = dst.data[:vol]
	} else {
		dst.data = make([]float32, vol)
	}
	getFloats(dst.data, buf[:4*vol])
	return dst, buf[4*vol:], nil
}
