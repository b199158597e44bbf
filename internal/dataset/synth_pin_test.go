package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"medsplit/internal/parallel"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
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

// serialSplit is split as one serial loop over one stream: each sample
// draws its jitter and then its noise, in turn. No snapshot, skip or
// fan-out is involved, so it is the reference the fanned-out split is
// held to.
func serialSplit(g *synthGen, n int, seed uint64) *Dataset {
	r := rng.New(seed)
	x := tensor.New(n, 3, synthSize, synthSize)
	labels := make([]int, n)
	perm := r.Perm(n)
	scratch := make([]float32, samplePixels)
	for i := range labels {
		j := sampleJob{class: perm[i] % g.cfg.Classes}
		labels[i] = j.class
		j.dx = r.Intn(2*synthShift+1) - synthShift
		j.dy = r.Intn(2*synthShift+1) - synthShift
		j.brightness = 0.8 + 0.4*r.Float32()
		g.render(x.Data()[i*samplePixels:(i+1)*samplePixels], &j, r, scratch)
	}
	return &Dataset{X: x, Labels: labels, Classes: g.cfg.Classes}
}

// TestSynthCIFARZeroU plants a zero u, which Norm redraws, in the noise
// of the first, a middle and the last training sample and of a test
// sample, each at a different pair: the first pair (the zmm noise
// kernel's first block), pair 700 (lane 4 of its block 87) and the
// last pair (drawn by Norm itself). The speculative pass then misses,
// and both splits must still equal the serial loop at 1, 2 and 4
// workers. A zero u at stream draw D (counted from 1) comes from the
// seed −D·γ − 1 for the training split (seeded Seed+1) and −D·γ − 2
// for the test split, because SplitMix64's finalizer maps 0 to 0. A
// split of n samples draws n−1 times for its permutation, then 3 times
// for each sample's jitter before its 3072 noise draws.
func TestSynthCIFARZeroU(t *testing.T) {
	defer func(w int) { parallel.ForcedWorkers = w }(parallel.ForcedWorkers)
	const train, test, gamma = 12, 5, 0x9e3779b97f4a7c15
	noiseDraw := func(n, sample, pair int) uint64 {
		return uint64(n - 1 + sample*(3+samplePixels) + 3 + 2*pair + 1)
	}
	for _, c := range []struct {
		name  string
		split int // 1 train, 2 test
		draw  uint64
	}{
		{"first train sample, first pair", 1, noiseDraw(train, 0, 0)},
		{"middle train sample, pair 700", 1, noiseDraw(train, train/2, 700)},
		{"last train sample, last pair", 1, noiseDraw(train, train-1, samplePixels/2-1)},
		{"test sample 2, pair 700", 2, noiseDraw(test, 2, 700)},
	} {
		seed := -c.draw*gamma - uint64(c.split)
		cfg := SynthConfig{Classes: 10, Train: train, Test: test, Noise: 0.35, Seed: seed}
		g := newSynthGen(cfg)
		n := []int{0, train, test}[c.split]
		if jobs, _ := g.draw(n, seed+uint64(c.split), true); g.renderRows(make([]float32, n*samplePixels), jobs, nil) {
			t.Fatalf("%s: the speculative pass did not miss, so no zero u was planted", c.name)
		}
		wantTrain, wantTest := serialSplit(g, train, seed+1), serialSplit(g, test, seed+2)
		for _, workers := range []int{1, 2, 4} {
			parallel.ForcedWorkers = workers
			gotTrain, gotTest := SynthCIFAR(cfg)
			if synthDigest(gotTrain, gotTest) != synthDigest(wantTrain, wantTest) {
				t.Errorf("%s at %d workers: SynthCIFAR differs from the serial loop", c.name, workers)
			}
		}
	}
}

// TestSynthCIFARShardsRejectsNonPartition checks that a deal that
// drops, repeats or invents an index panics.
func TestSynthCIFARShardsRejectsNonPartition(t *testing.T) {
	cfg := SynthConfig{Classes: 10, Train: 6, Test: 2, Seed: 3}
	for _, idx := range [][][]int{
		{{0, 1, 2}, {3, 4}},
		{{0, 1, 2}, {3, 4, 4}},
		{{0, 1, 2}, {3, 4, 6}},
		{{0, 1, 2}, {3, 4, 5, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("deal %v did not panic", idx)
				}
			}()
			SynthCIFARShards(cfg, func([]int) [][]int { return idx })
		}()
	}
}
