package models

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"medsplit/internal/parallel"
	"medsplit/internal/rng"
)

// TestFreshModelPins pins freshly built parameters bit for bit, and the
// position the builder leaves its generator at, at 1, 2 and 4 workers:
// weight initialisation may spread its draws over workers but must
// consume the stream exactly as one serial loop does.
func TestFreshModelPins(t *testing.T) {
	defer func(w int) { parallel.ForcedWorkers = w }(parallel.ForcedWorkers)
	for _, c := range []struct {
		name  string
		build func(r *rng.RNG) *Model
		want  uint64
	}{
		{"mlp", func(r *rng.RNG) *Model { return MLP(3*32*32, []int{64}, 10, r) }, 0x6e1c2e5ad803bf52},
		{"vgg-lite", func(r *rng.RNG) *Model { return VGGLite(10, 8, r) }, 0x6c270f90f46c5442},
		{"resnet-lite", func(r *rng.RNG) *Model { return ResNetLite(10, 8, r) }, 0xdd5be591534234d0},
	} {
		for _, workers := range []int{1, 2, 4} {
			parallel.ForcedWorkers = workers
			r := rng.New(0xA11CE + 41)
			m := c.build(r)
			h := fnv.New64a()
			var buf []byte
			for _, p := range m.Net.Params() {
				for _, v := range p.W.Data() {
					buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
				}
			}
			s := r.Snapshot()
			buf = binary.LittleEndian.AppendUint64(buf, s.State)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.CachedNorm))
			if s.HasCachedNorm {
				buf = append(buf, 1)
			}
			h.Write(buf)
			if got := h.Sum64(); got != c.want {
				t.Errorf("%s at %d workers: digest %#x, want %#x", c.name, workers, got, c.want)
			}
		}
	}
}

// BenchmarkBuild builds each model as the training workloads do.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func(r *rng.RNG) *Model
	}{
		{"mlp", func(r *rng.RNG) *Model { return MLP(3*32*32, []int{64}, 10, r) }},
		{"vgg-lite", func(r *rng.RNG) *Model { return VGGLite(10, 8, r) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.build(rng.New(uint64(i)))
			}
		})
	}
}
