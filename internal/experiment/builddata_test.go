package experiment

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"unsafe"

	"medsplit/internal/dataset"
	"medsplit/internal/parallel"
	"medsplit/internal/rng"
)

// datasetDigest is an FNV-64a digest of a dataset's pixel bits and
// labels.
func datasetDigest(d *dataset.Dataset) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, v := range d.X.Data() {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	for _, l := range d.Labels {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
	}
	h.Write(buf)
	return h.Sum64()
}

// TestBuildDataShardsAreSubsetViews holds every BuildData shard bit for
// bit to the Subset of the whole training split that its sharding names,
// under IID, power-law and Dirichlet sharding at 1, 2 and 4 workers,
// and checks that the shards are consecutive, disjoint row ranges of
// one buffer.
func TestBuildDataShardsAreSubsetViews(t *testing.T) {
	defer func(w int) { parallel.ForcedWorkers = w }(parallel.ForcedWorkers)
	for _, c := range []struct {
		sharding Sharding
		alpha    float64
		arch     Arch
	}{
		{ShardingIID, 0, ArchMLP},
		{ShardingPowerLaw, 1.5, ArchVGG},
		{ShardingDirichlet, 0.3, ArchMLP},
	} {
		cfg := Config{Arch: c.arch, Classes: 10, TrainSamples: 61, TestSamples: 9, Noise: 0.35,
			Platforms: 4, TotalBatch: 8, Sharding: c.sharding, Alpha: c.alpha, Seed: 13}
		train, test := dataset.SynthCIFAR(dataset.SynthConfig{Classes: 10, Train: 61, Test: 9, Noise: 0.35, Seed: cfg.Seed + 0xDA7A})
		r := rng.New(cfg.Seed + 0x54A4D)
		var idx [][]int
		switch c.sharding {
		case ShardingIID:
			idx = dataset.ShardIID(train.Len(), cfg.Platforms, r)
		case ShardingPowerLaw:
			idx = dataset.ShardPowerLaw(train.Len(), cfg.Platforms, c.alpha, r)
		case ShardingDirichlet:
			idx = dataset.ShardDirichlet(train.Labels, cfg.Classes, cfg.Platforms, c.alpha, r)
		}
		for _, workers := range []int{1, 2, 4} {
			parallel.ForcedWorkers = workers
			shards, gotTest, _, err := BuildData(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if datasetDigest(gotTest) != datasetDigest(test) {
				t.Errorf("%s at %d workers: test split differs from SynthCIFAR's", c.sharding, workers)
			}
			if len(shards) != len(idx) {
				t.Fatalf("%s: %d shards, want %d", c.sharding, len(shards), len(idx))
			}
			var next uintptr // where the previous shard's rows end
			for k, shard := range shards {
				if datasetDigest(shard) != datasetDigest(train.Subset(idx[k])) {
					t.Errorf("%s at %d workers: shard %d differs from train.Subset", c.sharding, workers, k)
				}
				if want := len(idx[k]); shard.Len() != want {
					t.Errorf("%s: shard %d has %d samples, want %d", c.sharding, k, shard.Len(), want)
				}
				d := shard.X.Data()
				at := uintptr(unsafe.Pointer(&d[0]))
				if k > 0 && at != next {
					t.Errorf("%s: shard %d does not start where shard %d ends", c.sharding, k, k-1)
				}
				if cap(d) != len(d) {
					t.Errorf("%s: shard %d reaches past its rows (cap %d, len %d)", c.sharding, k, cap(d), len(d))
				}
				next = at + uintptr(4*len(d))
			}
		}
	}
}

// BenchmarkBuildData builds the training workloads' data: the MLP
// config of the repository benchmark's train_mlp_tcp (10 classes, 800
// training and 10 test samples, 2 platforms, IID).
func BenchmarkBuildData(b *testing.B) {
	cfg := Config{Arch: ArchMLP, Classes: 10, Width: 8, TrainSamples: 800, TestSamples: 10, Noise: 0.35,
		Platforms: 2, TotalBatch: 2, Sharding: ShardingIID}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, _, _, err := BuildData(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
