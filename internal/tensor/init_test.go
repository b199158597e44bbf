package tensor

import (
	"math"
	"testing"

	"medsplit/internal/parallel"
	"medsplit/internal/rng"
)

// TestFillNormalMatchesSerial holds FillNormal to the serial draw loop,
// bit for bit and in the stream position it leaves behind, across sizes
// on both sides of the fan-out and starts with and without a spare
// Box-Muller variate cached.
func TestFillNormalMatchesSerial(t *testing.T) {
	defer func(w int) { parallel.ForcedWorkers = w }(parallel.ForcedWorkers)
	for _, n := range []int{1, 2, 7, 1000, fillNormalParallel - 1, fillNormalParallel + 3, 196608} {
		for _, cached := range []bool{false, true} {
			for _, workers := range []int{1, 2, 3, 4} {
				parallel.ForcedWorkers = workers
				got, want := rng.New(uint64(n)), rng.New(uint64(n))
				if cached {
					got.Norm()
					want.Norm()
				}
				x := New(n)
				x.FillNormal(got, 0.25, 1.5)
				for i, v := range x.Data() {
					if w := 0.25 + 1.5*want.NormFloat32(); math.Float32bits(v) != math.Float32bits(w) {
						t.Fatalf("n=%d cached=%v workers=%d: element %d = %v, serial %v", n, cached, workers, i, v, w)
					}
				}
				if got.Snapshot() != want.Snapshot() {
					t.Fatalf("n=%d cached=%v workers=%d: stream left at %+v, serial at %+v", n, cached, workers, got.Snapshot(), want.Snapshot())
				}
			}
		}
	}
}
