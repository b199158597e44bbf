package tensor

import (
	"testing"
	"unsafe"
)

// TestPoolAlignment pins the documented guarantee: GetBuf hands out
// 32-byte-aligned float32 backing, fresh or recycled, for every size
// class the kernels touch.
func TestPoolAlignment(t *testing.T) {
	var p Pool
	sizes := []int{1, 2, 3, 7, 8, 9, 31, 32, 100, 1000, 4096, 1 << 16, 1<<20 + 3}
	addr := func(s []float32) uintptr {
		return uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	}

	for _, n := range sizes {
		buf := p.GetBuf(n)
		if len(buf) != n {
			t.Fatalf("GetBuf(%d) len = %d", n, len(buf))
		}
		if a := addr(buf); a&31 != 0 {
			t.Errorf("GetBuf(%d) base %#x not 32-byte aligned", n, a)
		}
		p.PutBuf(buf)

		// Recycled buffers must come back aligned too.
		buf = p.GetBuf(n)
		if a := addr(buf); a&31 != 0 {
			t.Errorf("recycled GetBuf(%d) base %#x not 32-byte aligned", n, a)
		}
		p.PutBuf(buf)
	}
}

// TestPoolRejectsSubVectorCapacities documents the flip side: storage
// smaller than one vector register is never pooled, so the aligned
// floor classes stay pure.
func TestPoolRejectsSubVectorCapacities(t *testing.T) {
	var p Pool
	small := make([]float32, 4, 4)
	p.PutBuf(small) // dropped: capacity below alignFloats
	got := p.GetBuf(3)
	if cap(got) < alignFloats {
		t.Fatalf("GetBuf(3) cap = %d, want >= %d", cap(got), alignFloats)
	}
}
