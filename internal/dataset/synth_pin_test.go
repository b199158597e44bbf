package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"medsplit/internal/parallel"
)

// synthDigest is an FNV-64a digest of both splits' pixel bits and labels.
func synthDigest(splits ...*Dataset) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, d := range splits {
		buf = buf[:0]
		for _, v := range d.X.Data() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		for _, l := range d.Labels {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// TestSynthCIFARPins pins SynthCIFAR's output bit for bit at 1, 2 and 4
// workers, so every corpus a seeded experiment trains on stays the same
// however the generator spreads its work.
func TestSynthCIFARPins(t *testing.T) {
	defer func(w int) { parallel.ForcedWorkers = w }(parallel.ForcedWorkers)
	for _, c := range []struct {
		cfg  SynthConfig
		want uint64
	}{
		{SynthConfig{Classes: 10, Train: 96, Test: 24, Noise: 0.35, Seed: 41}, 0x0237348b4741bf30},
		{SynthConfig{Classes: 100, Train: 230, Test: 37, Noise: 0.1, Seed: 7}, 0xbdaae619d5d1b166},
		{SynthConfig{Classes: 10, Train: 51, Test: 13, Noise: 0.1, Seed: 1234}, 0x4e33ab878633a6d8},
	} {
		for _, workers := range []int{1, 2, 4} {
			parallel.ForcedWorkers = workers
			train, test := SynthCIFAR(c.cfg)
			if got := synthDigest(train, test); got != c.want {
				t.Errorf("%+v at %d workers: digest %#x, want %#x", c.cfg, workers, got, c.want)
			}
		}
	}
}

// BenchmarkSynthCIFAR generates the training workloads' corpus: 10
// classes, 800 training and 10 test samples.
func BenchmarkSynthCIFAR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SynthCIFAR(SynthConfig{Classes: 10, Train: 800, Test: 10, Noise: 0.35, Seed: uint64(i)})
	}
}
