package compress

import (
	"slices"
	"sync"

	"medsplit/internal/parallel"
	"medsplit/internal/tensor/kernels"
)

// This file holds the codec number-crunching kernels: chunked parallel
// f32<->f16 conversion, the fused min/max + quantize pass behind the
// int8 codec, and the O(n) magnitude selection behind top-k. The
// per-element conversions route through the shared vectorized kernel
// layer (internal/tensor/kernels) — parallelism only changes which
// goroutine handles which chunk, and the kernel layer holds its vector
// and scalar variants bit-identical — so the differential tests hold
// the fanned-out kernels to the serial ones bit for bit (raw/f16/int8)
// or up to tie order (top-k).
//
// Note on f16 rounding: conversion follows the kernel layer's contract
// — IEEE round-to-nearest-even, matching hardware F16C/NEON converters
// — where the original scalar codec rounded ties away from zero. The
// codecs' accuracy contract (~2⁻¹¹ relative error) is unchanged; only
// exact-tie mantissas land one ULP differently than pre-kernel-layer
// payloads did.

// parallelThreshold is the element count below which the conversion
// kernels stay single-threaded: goroutine fan-out costs more than the
// loop itself on small activations.
const parallelThreshold = 1 << 15

// serialChunk reports whether an n-element kernel runs on the calling
// goroutine. Call sites check it BEFORE building the closure they would
// hand to parallelChunks (see parallel.Serial): that allocation would be
// a per-message cost on the zero-allocation path.
func serialChunk(n int) bool { return parallel.Serial(n, n, parallelThreshold) }

// parallelChunks runs fn over [0,n) split into contiguous chunks, one
// per worker, when n crosses the threshold; otherwise serially.
func parallelChunks(n int, fn func(i0, i1 int)) { parallel.For(n, n, parallelThreshold, fn) }

// putF16 converts src to IEEE-754 binary16 into dst (len(dst) must be
// 2*len(src)), fanning the branch-free-per-element loop out across
// cores for large tensors.
func putF16(dst []byte, src []float32) {
	if serialChunk(len(src)) {
		putF16Range(dst, src, 0, len(src))
		return
	}
	parallelChunks(len(src), func(i0, i1 int) {
		putF16Range(dst, src, i0, i1)
	})
}

func putF16Range(dst []byte, src []float32, i0, i1 int) {
	kernels.F32ToF16Bytes(dst[2*i0:2*i1], src[i0:i1])
}

// getF16 converts binary16 bytes back to float32 (len(src) must be
// 2*len(dst)).
func getF16(dst []float32, src []byte) {
	if serialChunk(len(dst)) {
		getF16Range(dst, src, 0, len(dst))
		return
	}
	parallelChunks(len(dst), func(i0, i1 int) {
		getF16Range(dst, src, i0, i1)
	})
}

func getF16Range(dst []float32, src []byte, i0, i1 int) {
	kernels.F16BytesToF32(dst[i0:i1], src[2*i0:2*i1])
}

// rangeOf returns the minimum and maximum of d in one fused pass,
// reduced over per-worker chunk partials. Chunk boundaries cannot
// change the result on finite data: min and max are order-independent.
// NaN inputs are outside the serial/parallel bit-for-bit contract —
// which NaNs a comparison scan ignores depends on where the scan
// starts, so chunking can land on a different (equally arbitrary)
// range. Training asserts numerical health upstream (Tensor.HasNaN);
// quantizing NaN activations is undefined either way.
func rangeOf(d []float32) (lo, hi float32) {
	if len(d) == 0 {
		return 0, 0
	}
	if serialChunk(len(d)) {
		return rangeOfSerial(d)
	}
	// One chunk per worker; the partials are reduced in chunk order with
	// the serial pass's strict comparisons, so the first-seen value wins
	// among equals (±0) as it does serially.
	w := parallel.Workers()
	size := (len(d) + w - 1) / w
	parts := make([][2]float32, (len(d)+size-1)/size)
	parallel.For(len(parts), len(d), parallelThreshold, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			parts[c][0], parts[c][1] = rangeOfSerial(d[c*size : min((c+1)*size, len(d))])
		}
	})
	lo, hi = parts[0][0], parts[0][1]
	for _, p := range parts[1:] {
		if p[0] < lo {
			lo = p[0]
		}
		if p[1] > hi {
			hi = p[1]
		}
	}
	return lo, hi
}

// rangeOfSerial is the scalar reference min/max pass.
func rangeOfSerial(d []float32) (lo, hi float32) {
	lo, hi = d[0], d[0]
	for _, v := range d[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// quantize8 writes the linear 8-bit quantization of src into dst with
// the given range. The per-element formula matches the original scalar
// loop exactly, so chunking keeps the bytes bit-identical.
func quantize8(dst []byte, src []float32, lo float32, scale float32) {
	if serialChunk(len(src)) {
		quantize8Range(dst, src, lo, scale, 0, len(src))
		return
	}
	parallelChunks(len(src), func(i0, i1 int) {
		quantize8Range(dst, src, lo, scale, i0, i1)
	})
}

func quantize8Range(dst []byte, src []float32, lo, scale float32, i0, i1 int) {
	kernels.Quantize8(dst[i0:i1], src[i0:i1], lo, scale)
}

// dequantize8 writes lo + src[i]*step into dst.
func dequantize8(dst []float32, src []byte, lo, step float32) {
	if serialChunk(len(dst)) {
		dequantize8Range(dst, src, lo, step, 0, len(dst))
		return
	}
	parallelChunks(len(dst), func(i0, i1 int) {
		dequantize8Range(dst, src, lo, step, i0, i1)
	})
}

func dequantize8Range(dst []float32, src []byte, lo, step float32, i0, i1 int) {
	kernels.Dequantize8(dst[i0:i1], src[i0:i1], lo, step)
}

// topkScratch recycles the index scratch topKIndices partitions, so the
// encode path stops allocating an O(n) slice per tensor per round.
var topkScratch = sync.Pool{New: func() any { return new([]int32) }}

// topKIndices returns the indices of the k largest-magnitude entries of
// d, in ascending index order for cache-friendly decode. Selection is
// an O(n) iterative quickselect on magnitudes (median-of-three pivots)
// instead of a full O(n log n) sort; only the k survivors are sorted.
//
// Tie-breaking among entries with equal magnitude at the selection
// boundary is unspecified, as it was with the unstable sort this
// replaces: the multiset of kept magnitudes is deterministic, the index
// choice among exact ties is not part of the codec contract.
func topKIndices(d []float32, k int, out []int32) []int32 {
	boxed := topkScratch.Get().(*[]int32)
	idx := *boxed
	if cap(idx) < len(d) {
		idx = make([]int32, len(d))
	}
	idx = idx[:len(d)]
	for i := range idx {
		idx[i] = int32(i)
	}
	quickselectTopK(d, idx, k)
	out = append(out[:0], idx[:k]...)
	*boxed = idx
	topkScratch.Put(boxed)
	slices.Sort(out)
	return out
}

// mag returns |v| without the sign bit dance of math.Abs on float32.
func mag(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// quickselectTopK partitions idx so that its first k entries index the
// k largest-magnitude values of d (in arbitrary order).
func quickselectTopK(d []float32, idx []int32, k int) {
	lo, hi := 0, len(idx)
	for hi-lo > 1 && k > lo && k < hi {
		// Median-of-three pivot: deterministic, and resistant to the
		// sorted/constant inputs that sink a fixed-position pivot.
		mid := lo + (hi-lo)/2
		a, b, c := mag(d[idx[lo]]), mag(d[idx[mid]]), mag(d[idx[hi-1]])
		var pivot float32
		switch {
		case (a >= b) == (a <= c):
			pivot = a
		case (b >= a) == (b <= c):
			pivot = b
		default:
			pivot = c
		}
		// Three-way partition around pivot magnitude: [lo,i) greater,
		// [i,j) equal, [j,hi) smaller. Descending, so "top k" is a prefix.
		i, j, p := lo, lo, hi
		for j < p {
			m := mag(d[idx[j]])
			switch {
			case m > pivot:
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j++
			case m < pivot:
				p--
				idx[j], idx[p] = idx[p], idx[j]
			default:
				j++
			}
		}
		switch {
		case k <= i:
			hi = i
		case k >= j:
			lo = j
		default:
			return // boundary falls inside the equal run: any tie works
		}
	}
}
