// Package tensor implements dense float32 tensors and the numerical
// kernels (matrix multiply, im2col convolution lowering, reductions,
// softmax) that the neural-network layers in medsplit are built on.
//
// Tensors are row-major and contiguous. Shape errors panic: they are
// programming errors of the same kind as out-of-range slice indexing, and
// the panic messages carry both shapes so the failing call site is obvious.
// I/O and decoding, which depend on external bytes, return errors instead.
//
// Tensors are not safe for concurrent mutation; concurrent reads are fine.
package tensor

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	shape []int
	data  []float32
}

// New allocates a zero-filled tensor with the given shape. Each dimension
// must be positive; a zero-dimensional tensor (scalar) is allowed by
// calling New with no arguments.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Format a copy: handing shape itself to fmt would make it
			// escape, and every variadic call of New and EnsureShape
			// would then heap-allocate its argument list.
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is
// used directly (not copied); the caller must not alias it afterwards
// unless aliasing is intended. len(data) must equal the shape's volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice is a copy and
// may be modified freely by the caller.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data exposes the underlying storage. Mutating it mutates the tensor;
// this is the intended fast path for kernels and serialization.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Reshape returns a view of t with a new shape of equal volume. The view
// shares storage with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	return t.ReshapeInto(nil, shape...)
}

// ReshapeInto is Reshape into a header the caller keeps: dst (a fresh
// one when nil) becomes the view, reusing its shape storage, so a layer
// that returns a reshaped input on every call stops allocating once
// warm.
func (t *Tensor) ReshapeInto(dst *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Cloned so that shape itself never escapes: the caller's
			// variadic array stays on its stack.
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", slices.Clone(shape)))
		}
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (volume %d) to %v (volume %d)", t.shape, len(t.data), slices.Clone(shape), n))
	}
	if dst == nil {
		dst = new(Tensor)
	}
	dst.shape = append(dst.shape[:0], shape...)
	dst.data = t.data
	return dst
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must match exactly.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !SameShape(t, src) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Row returns a view of row i of a rank-2 tensor as a []float32 slice
// into the tensor's storage.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	cols := t.shape[1]
	return t.data[i*cols : (i+1)*cols]
}

// AllClose reports whether a and b have the same shape and every pair of
// elements differs by at most tol (absolute) or tol relative to the larger
// magnitude.
func AllClose(a, b *Tensor, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		x, y := float64(a.data[i]), float64(b.data[i])
		diff := math.Abs(x - y)
		if diff <= tol {
			continue
		}
		scale := math.Max(math.Abs(x), math.Abs(y))
		if diff > tol*scale {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or infinite. Training loops
// use it as a cheap numerical-health assertion.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

// String renders small tensors fully and large ones as a shape summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor%v%v", t.shape, t.data)
		return b.String()
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.shape, len(t.data))
}
