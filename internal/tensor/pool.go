package tensor

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Pool recycles float32 scratch buffers through power-of-two size
// classes, each backed by a sync.Pool. The GEMM engine and conv
// lowering draw the same handful of scratch sizes every call (packed
// panels, transposes, im2col columns); routing those through a Pool
// turns per-call allocations into constant-space buffer reuse and keeps
// GC pressure flat as platforms × rounds grows.
//
// PutBuf hands a buffer back to the pool: the caller asserts nothing
// else aliases it. Violating that is a use-after-free-style aliasing
// bug, so PutBuf only belongs at points where ownership is unambiguous.
type Pool struct {
	classes [poolClasses]sync.Pool
	// boxes recycles the *[]float32 wrappers the class pools store:
	// putting a bare []float32 into a sync.Pool boxes the slice header
	// into a freshly allocated interface value every time, which made
	// every pooled GEMM scratch cost one small allocation per PutBuf.
	boxes sync.Pool
}

// poolClasses covers buffers up to 2^31 elements — far beyond any tensor
// this codebase materializes.
const poolClasses = 32

// Default is the package-level pool; the GEMM engine draws its packing
// and transpose scratch from it. (The nn layers and the split server
// reuse long-lived buffers via EnsureShape instead — their scratch has
// layer lifetime, not call lifetime.)
var Default Pool

// sizeClass returns the bucket index for a buffer of n float32s: the
// smallest power of two ≥ n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Alignment guarantee: GetBuf hands out storage whose base
// address is 32-byte aligned, so the AVX2/NEON kernels' vector loads
// never straddle a cache line at the buffer start. The guarantee costs
// nothing structurally — allocation classes are already powers of two,
// and the Go allocator places power-of-two objects of ≥ alignFloats
// elements (32 bytes) on size-class boundaries, which are 32-byte
// aligned — so enforcing it is a floor on the smallest class plus a
// defensive check when pulling from the pool. Alignment is a
// performance property, not a correctness one: the kernels use
// unaligned loads throughout.
const (
	alignBytes  = 32
	alignFloats = alignBytes / 4
	// minClass is sizeClass(alignFloats): no pooled allocation is
	// smaller than one vector register.
	minClass = 3
)

// aligned32 reports whether s's backing array starts on a 32-byte
// boundary.
func aligned32(s []float32) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))&(alignBytes-1) == 0
}

// alignedMake allocates a [n]float32 slice with the given power-of-two
// capacity and a 32-byte-aligned base. The first attempt succeeds on
// the gc allocator (see the alignment note above); the retry is a
// defensive fallback that accepts an unaligned buffer rather than loop
// forever on a hypothetical allocator without that property.
func alignedMake(n, capacity int) []float32 {
	s := make([]float32, n, capacity)
	if aligned32(s) {
		return s
	}
	return make([]float32, n, capacity)
}

// GetBuf returns a raw scratch buffer of exactly n float32s with
// undefined contents: pooled when an aligned buffer of the class is
// available, freshly allocated otherwise. The backing storage is
// 32-byte aligned. Pair every GetBuf with a PutBuf.
func (p *Pool) GetBuf(n int) []float32 {
	cls := max(sizeClass(n), minClass)
	if b, ok := p.classes[cls].Get().(*[]float32); ok && cap(*b) >= n && aligned32(*b) {
		buf := *b
		*b = nil
		p.boxes.Put(b)
		return buf[:n]
	}
	return alignedMake(n, 1<<cls)
}

// PutBuf returns a GetBuf buffer to the pool. The buffer must not be
// used afterwards.
func (p *Pool) PutBuf(buf []float32) {
	// Sub-vector capacities are never handed out again (GetBuf floors
	// at minClass), so don't retain them.
	if cap(buf) < alignFloats || cap(buf)&(cap(buf)-1) != 0 {
		return
	}
	b, _ := p.boxes.Get().(*[]float32)
	if b == nil {
		b = new([]float32)
	}
	*b = buf[:cap(buf)]
	p.classes[sizeClass(cap(buf))].Put(b)
}

// EnsureShape returns a tensor of exactly the given shape, reusing t's
// storage when its capacity suffices (contents are preserved up to the
// new volume, which callers should treat as undefined). It is the
// idiom for layer- or server-held scratch whose shape can drift between
// rounds (last partial batch, per-platform batch skew).
func EnsureShape(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dimension in EnsureShape")
		}
		n *= d
	}
	if t != nil && cap(t.data) >= n {
		t.shape = append(t.shape[:0], shape...)
		t.data = t.data[:n]
		return t
	}
	return New(shape...)
}

// EnsureShapeOf is EnsureShape with src's shape, without materializing
// the intermediate shape copy Shape() would allocate — the idiom for
// layer scratch shaped like the layer input.
func (t *Tensor) EnsureShapeOf(src *Tensor) *Tensor {
	return EnsureShape(t, src.shape...)
}
