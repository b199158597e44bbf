package tensor

import (
	"fmt"
	"math"
	"slices"

	"medsplit/internal/tensor/kernels"
)

// Add returns a + b elementwise as a new tensor.
func Add(a, b *Tensor) *Tensor {
	mustSameShape("Add", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b elementwise as a new tensor.
func Sub(a, b *Tensor) *Tensor {
	mustSameShape("Sub", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns the elementwise (Hadamard) product a * b as a new tensor.
func Mul(a, b *Tensor) *Tensor {
	mustSameShape("Mul", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// AddInPlace sets t = t + x elementwise.
func (t *Tensor) AddInPlace(x *Tensor) {
	mustSameShape("AddInPlace", t, x)
	for i := range t.data {
		t.data[i] += x.data[i]
	}
}

// SubInPlace sets t = t - x elementwise.
func (t *Tensor) SubInPlace(x *Tensor) {
	mustSameShape("SubInPlace", t, x)
	for i := range t.data {
		t.data[i] -= x.data[i]
	}
}

// MulInPlace sets t = t * x elementwise.
func (t *Tensor) MulInPlace(x *Tensor) {
	mustSameShape("MulInPlace", t, x)
	for i := range t.data {
		t.data[i] *= x.data[i]
	}
}

// Scale multiplies every element of t by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// Scaled returns s*t as a new tensor.
func Scaled(t *Tensor, s float32) *Tensor {
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] * s
	}
	return out
}

// AxpyInPlace sets t = t + alpha*x elementwise — the fused update used by
// SGD-style optimizers. It dispatches to the vector kernel layer, which
// is bit-identical to the scalar loop per element.
func (t *Tensor) AxpyInPlace(alpha float32, x *Tensor) {
	mustSameShape("AxpyInPlace", t, x)
	kernels.Axpy(alpha, x.data, t.data)
}

// AddRowVector adds vector v (length = t.Dim(1)) to every row of the
// rank-2 tensor t, in place. It implements bias broadcasting.
func (t *Tensor) AddRowVector(v *Tensor) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: AddRowVector on rank-%d tensor", len(t.shape)))
	}
	if v.Size() != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector length %d does not match %d columns", v.Size(), t.shape[1]))
	}
	rows, cols := t.shape[0], t.shape[1]
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += v.data[c]
		}
	}
}

// SumRows returns the column-wise sum of a rank-2 tensor as a length-cols
// rank-1 tensor. It is the adjoint of AddRowVector and computes bias
// gradients.
func SumRows(t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRows on rank-%d tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols)
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c := range row {
			out.data[c] += row[c]
		}
	}
	return out
}

// SumRowsAcc accumulates the column-wise sums of rank-2 t into dst
// (length = t.Dim(1)). It is the fused form of the bias-gradient pattern
// G.AddInPlace(SumRows(dy)) and avoids the temporary vector.
func SumRowsAcc(dst, t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRowsAcc on rank-%d tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	if dst.Size() != cols {
		panic(fmt.Sprintf("tensor: SumRowsAcc dst size %d, want %d", dst.Size(), cols))
	}
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c := range row {
			dst.data[c] += row[c]
		}
	}
	return dst
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements, or 0 for an empty
// tensor.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the largest element. It panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	if a.Size() != b.Size() {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", a.Size(), b.Size()))
	}
	var s float64
	for i := range a.data {
		s += float64(a.data[i]) * float64(b.data[i])
	}
	return s
}

// Norm returns the Euclidean (L2) norm of t viewed as a flat vector.
func (t *Tensor) Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Apply replaces every element v with f(v), in place, and returns t for
// chaining.
func (t *Tensor) Apply(f func(float32) float32) *Tensor {
	for i := range t.data {
		t.data[i] = f(t.data[i])
	}
	return t
}

// Transpose returns the transpose of a rank-2 tensor as a new tensor.
func Transpose(t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose on rank-%d tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.data[c*rows+r] = t.data[r*cols+c]
		}
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax to each row of a
// rank-2 tensor, returning a new tensor of the same shape.
func SoftmaxRows(t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows on rank-%d tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(rows, cols)
	for r := 0; r < rows; r++ {
		in := t.data[r*cols : (r+1)*cols]
		o := out.data[r*cols : (r+1)*cols]
		m := in[0]
		for _, v := range in[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for c, v := range in {
			e := math.Exp(float64(v - m))
			o[c] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for c := range o {
			o[c] *= inv
		}
	}
	return out
}

// ArgmaxRows returns, for each row of a rank-2 tensor, the index of its
// largest element.
func ArgmaxRows(t *Tensor) []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRows on rank-%d tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		best, bestIdx := row[0], 0
		for c, v := range row[1:] {
			if v > best {
				best, bestIdx = v, c+1
			}
		}
		out[r] = bestIdx
	}
	return out
}

// ClipInPlace clamps every element into [-limit, limit] (panics unless
// limit > 0). Gradient clipping keeps half-trained models from blowing
// up in long experiments. It dispatches to the vector kernel layer,
// which leaves NaN and every in-range value bit-for-bit as the scalar
// two-compare loop does.
func (t *Tensor) ClipInPlace(limit float32) {
	kernels.Clamp(t.data, limit)
}

// ConcatRows stacks rank-2 tensors with identical column counts on top of
// each other. It is used by the split server's concatenated round mode to
// fuse minibatches from several platforms into one batch.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	cols := ts[0].shape[1]
	totalRows := 0
	for _, t := range ts {
		if len(t.shape) != 2 {
			panic(fmt.Sprintf("tensor: ConcatRows on rank-%d tensor", len(t.shape)))
		}
		if t.shape[1] != cols {
			panic(fmt.Sprintf("tensor: ConcatRows column mismatch %d vs %d", t.shape[1], cols))
		}
		totalRows += t.shape[0]
	}
	out := New(totalRows, cols)
	off := 0
	for _, t := range ts {
		copy(out.data[off:], t.data)
		off += len(t.data)
	}
	return out
}

// SplitRows is the inverse of ConcatRows: it slices a rank-2 tensor into
// consecutive row blocks of the given sizes. The returned tensors are
// copies, so callers may mutate them independently.
func SplitRows(t *Tensor, sizes []int) []*Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: SplitRows on rank-%d tensor", len(t.shape)))
	}
	total := 0
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: SplitRows with non-positive block size %d", s))
		}
		total += s
	}
	if total != t.shape[0] {
		panic(fmt.Sprintf("tensor: SplitRows sizes sum to %d, tensor has %d rows", total, t.shape[0]))
	}
	cols := t.shape[1]
	out := make([]*Tensor, len(sizes))
	off := 0
	for i, s := range sizes {
		block := New(s, cols)
		copy(block.data, t.data[off*cols:(off+s)*cols])
		out[i] = block
		off += s
	}
	return out
}

// ConcatDim0 stacks tensors along dimension 0. All inputs must share
// the same trailing shape. The split server's concat round mode uses it
// to fuse per-platform activation batches of any rank.
func ConcatDim0(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatDim0 of nothing")
	}
	trailing := ts[0].shape[1:]
	total := 0
	for _, t := range ts {
		if len(t.shape) != len(ts[0].shape) {
			panic(fmt.Sprintf("tensor: ConcatDim0 rank mismatch %v vs %v", t.shape, ts[0].shape))
		}
		for i, d := range trailing {
			if t.shape[i+1] != d {
				panic(fmt.Sprintf("tensor: ConcatDim0 trailing shape mismatch %v vs %v", t.shape, ts[0].shape))
			}
		}
		total += t.shape[0]
	}
	outShape := append([]int{total}, trailing...)
	out := New(outShape...)
	off := 0
	for _, t := range ts {
		copy(out.data[off:], t.data)
		off += len(t.data)
	}
	return out
}

// ConcatDim0Into stacks tensors along dimension 0 into dst, whose shape
// must be [Σ dim0, trailing...]. It is the buffer-reusing form of
// ConcatDim0: the split server calls it with a round-persistent fused
// batch so concat-mode scheduling stops allocating per round.
func ConcatDim0Into(dst *Tensor, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatDim0Into of nothing")
	}
	trailing := dst.shape[1:]
	total := 0
	for _, t := range ts {
		if len(t.shape) != len(dst.shape) {
			panic(fmt.Sprintf("tensor: ConcatDim0Into rank mismatch %v vs dst %v", t.shape, dst.shape))
		}
		for i, d := range trailing {
			if t.shape[i+1] != d {
				panic(fmt.Sprintf("tensor: ConcatDim0Into trailing shape mismatch %v vs dst %v", t.shape, dst.shape))
			}
		}
		total += t.shape[0]
	}
	if total != dst.shape[0] {
		panic(fmt.Sprintf("tensor: ConcatDim0Into inputs total dim0 %d, dst has %d", total, dst.shape[0]))
	}
	off := 0
	for _, t := range ts {
		copy(dst.data[off:], t.data)
		off += len(t.data)
	}
	return dst
}

// SplitDim0 slices t into consecutive blocks along dimension 0 with the
// given sizes (which must sum to t.Dim(0)). Blocks are copies.
func SplitDim0(t *Tensor, sizes []int) []*Tensor {
	return SplitDim0Into(nil, t, sizes)
}

// SplitDim0Into is the buffer-reusing form of SplitDim0: block i is
// copied into dst[i], whose storage is reused when its capacity
// suffices, and the (possibly regrown) dst is returned. The split
// server calls it with round-persistent per-platform scratch so concat
// mode stops allocating per round.
func SplitDim0Into(dst []*Tensor, t *Tensor, sizes []int) []*Tensor {
	if len(t.shape) == 0 {
		panic("tensor: SplitDim0 of scalar")
	}
	trailing := t.shape[1:]
	rest := 1
	for _, d := range trailing {
		rest *= d
	}
	total := 0
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: SplitDim0 non-positive block %d", s))
		}
		total += s
	}
	if total != t.shape[0] {
		panic(fmt.Sprintf("tensor: SplitDim0 sizes sum to %d, tensor has %d", total, t.shape[0]))
	}
	dst = slices.Grow(dst[:0], len(sizes))[:len(sizes)]
	off := 0
	for i, s := range sizes {
		block := dst[i]
		if block == nil || cap(block.data) < s*rest {
			block = &Tensor{data: make([]float32, s*rest)}
		}
		block.shape = append(append(block.shape[:0], s), trailing...)
		block.data = block.data[:s*rest]
		copy(block.data, t.data[off*rest:(off+s)*rest])
		dst[i] = block
		off += s
	}
	return dst
}

func mustSameShape(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
