package parallel

import (
	"slices"
	"sync"
	"testing"
)

// chunks runs For and returns the [i0, i1) ranges it handed fn, sorted.
func chunks(n, work, threshold int) [][2]int {
	var mu sync.Mutex
	var got [][2]int
	For(n, work, threshold, func(i0, i1 int) {
		mu.Lock()
		got = append(got, [2]int{i0, i1})
		mu.Unlock()
	})
	slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
	return got
}

// TestForCoversRangeOnce holds For to one contiguous, non-empty chunk
// per worker at most, together covering [0, n) exactly once, at several
// worker counts, with n below, at and above each.
func TestForCoversRangeOnce(t *testing.T) {
	defer func(w int) { ForcedWorkers = w }(ForcedWorkers)
	for _, workers := range []int{1, 2, 4, 7} {
		ForcedWorkers = workers
		for _, n := range []int{1, 2, 3, 5, 6, 7, 8, 13, 100} {
			got := chunks(n, n, 1)
			if len(got) > min(workers, n) {
				t.Errorf("workers=%d n=%d: %d chunks, want at most %d", workers, n, len(got), min(workers, n))
			}
			next := 0
			for _, c := range got {
				if c[0] != next || c[1] <= c[0] {
					t.Fatalf("workers=%d n=%d: chunks %v do not tile [0,%d)", workers, n, got, n)
				}
				next = c[1]
			}
			if next != n {
				t.Fatalf("workers=%d n=%d: chunks %v end at %d", workers, n, got, next)
			}
		}
	}
}

// TestSerialConditions checks each of Serial's three conditions on its
// own, and that For's serial branch makes the single call fn(0, n).
func TestSerialConditions(t *testing.T) {
	defer func(w int) { ForcedWorkers = w }(ForcedWorkers)
	ForcedWorkers = 4
	for _, c := range []struct {
		name               string
		n, work, threshold int
		workers            int
		serial             bool
	}{
		{"fan-out", 8, 10, 10, 4, false},
		{"work below threshold", 8, 9, 10, 4, true},
		{"one index", 1, 10, 10, 4, true},
		{"one worker", 8, 10, 10, 1, true},
	} {
		ForcedWorkers = c.workers
		if got := Serial(c.n, c.work, c.threshold); got != c.serial {
			t.Errorf("%s: Serial = %v, want %v", c.name, got, c.serial)
		}
		if got := chunks(c.n, c.work, c.threshold); c.serial && !slices.Equal(got, [][2]int{{0, c.n}}) {
			t.Errorf("%s: serial For made calls %v, want one fn(0, %d)", c.name, got, c.n)
		}
	}
}
