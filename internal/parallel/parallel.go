// Package parallel is the one loop fan-out the numeric packages share:
// the tensor kernels and the compress codecs split a loop over [0,n)
// into one contiguous chunk per worker once its work crosses the
// caller's threshold. Chunking only changes which goroutine handles
// which index, so callers whose per-index work is independent stay
// bit-identical to the serial loop.
package parallel

import (
	"runtime"
	"sync"
)

// ForcedWorkers, when positive, overrides GOMAXPROCS as the worker
// count. Tests set it to pin the serial path (1) or to exercise the
// multi-goroutine paths (and the race detector) on single-core runners.
var ForcedWorkers int

// Workers is the fan-out's worker count.
func Workers() int {
	if ForcedWorkers > 0 {
		return ForcedWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Serial reports whether a loop over n indices with the given work
// estimate runs on the calling goroutine. Hot call sites check it
// BEFORE building the closure they would hand to For: the closure
// escapes into the goroutine fan-out, so constructing it costs a heap
// allocation per call even when For's serial branch runs.
func Serial(n, work, threshold int) bool {
	return work < threshold || n <= 1 || Workers() <= 1
}

// For runs fn over [0,n) split into contiguous chunks, one per worker,
// when work reaches threshold; otherwise serially as fn(0, n).
func For(n, work, threshold int, fn func(i0, i1 int)) {
	workers := min(Workers(), n)
	if work < threshold || workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for i0 := 0; i0 < n; i0 += chunk {
		i1 := min(i0+chunk, n)
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			fn(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}
