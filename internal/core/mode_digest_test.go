package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"medsplit/internal/compress"
	"medsplit/internal/dataset"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
)

// modeDigest trains a fixed-seed 3-platform MLP session under one
// scheduling configuration and returns the FNV digest of the final
// weights (platform fronts, then the server back).
func modeDigest(t *testing.T, mode RoundMode, staleness, l1sync int, labelSharing bool) uint64 {
	t.Helper()
	const K, rounds = 3, 8
	train, _ := testData(t, 4, 240, 60, 93)
	flat := flatten(train)
	fronts, back := buildFronts(t, 313, K, flat.X.Dim(1), 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(94))
	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) {
		c.Mode = mode
		c.Staleness = staleness
		c.L1SyncEvery = l1sync
		if labelSharing {
			c.LabelSharing = true
			c.Loss = nn.SoftmaxCrossEntropy{}
		}
	})
	platforms := make([]*Platform, K)
	for k := range platforms {
		platforms[k] = defaultPlatform(t, k, fronts[k], flat.Subset(shards[k]), rounds, func(c *PlatformConfig) {
			c.L1SyncEvery = l1sync
			if labelSharing {
				c.LabelSharing = true
				c.Loss = nil
			}
		})
	}
	if _, err := RunLocal(srv, platforms); err != nil {
		t.Fatal(err)
	}
	return digestNets(fronts, back)
}

// vggInt8Digest trains a 2-platform VGG-lite session with the int8
// activation codec under sequential scheduling: the conv, im2col and
// quantized wire paths the MLP rows do not reach.
func vggInt8Digest(t *testing.T) uint64 {
	t.Helper()
	const K, rounds = 2, 3
	train, _ := testData(t, 4, 48, 8, 97)
	codec, err := compress.ByName("int8")
	if err != nil {
		t.Fatal(err)
	}
	fronts := make([]*nn.Sequential, K)
	var back *nn.Sequential
	for k := 0; k <= K; k++ {
		m := models.VGGLite(4, 4, rng.New(331))
		f, b, err := models.Split(m.Net, m.DefaultCut)
		if err != nil {
			t.Fatal(err)
		}
		if k == K {
			back = b
		} else {
			fronts[k] = f
		}
	}
	shards := dataset.ShardIID(train.Len(), K, rng.New(98))
	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) { c.Codec = codec })
	platforms := make([]*Platform, K)
	for k := range platforms {
		platforms[k] = defaultPlatform(t, k, fronts[k], train.Subset(shards[k]), rounds, func(c *PlatformConfig) {
			c.Batch = 4
			c.Codec = codec
		})
	}
	if _, err := RunLocal(srv, platforms); err != nil {
		t.Fatal(err)
	}
	return digestNets(fronts, back)
}

// vggBenchShapeDigest trains VGG-lite at the repository benchmark's
// train_vgg_int8 shape — width 8, 2 platforms x 16 rows, int8
// activation codec, sequential — for a few rounds. At 16 rows conv1's
// column matrix is 442 368 floats, above parallelThreshold, so the row
// reaches the parallel im2col/col2im/GEMM fan-out the width-4 row does
// not.
func vggBenchShapeDigest(t *testing.T) uint64 {
	t.Helper()
	const K, rows, rounds = 2, 16, 3
	train, _ := testData(t, 10, K*rows*rounds, 8, 99)
	codec, err := compress.ByName("int8")
	if err != nil {
		t.Fatal(err)
	}
	fronts := make([]*nn.Sequential, K)
	var back *nn.Sequential
	for k := 0; k <= K; k++ {
		m := models.VGGLite(10, 8, rng.New(337))
		f, b, err := models.Split(m.Net, m.DefaultCut)
		if err != nil {
			t.Fatal(err)
		}
		if k == K {
			back = b
		} else {
			fronts[k] = f
		}
	}
	shards := dataset.ShardIID(train.Len(), K, rng.New(100))
	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) { c.Codec = codec })
	platforms := make([]*Platform, K)
	for k := range platforms {
		platforms[k] = defaultPlatform(t, k, fronts[k], train.Subset(shards[k]), rounds, func(c *PlatformConfig) {
			c.Batch = rows
			c.Codec = codec
		})
	}
	if _, err := RunLocal(srv, platforms); err != nil {
		t.Fatal(err)
	}
	return digestNets(fronts, back)
}

// resnetDigest trains a 2-platform ResNet-lite session under
// sequential scheduling: the stride-2 3×3 convs, the 1×1 stride-2
// pad-0 projection shortcuts and BatchNorm, geometries no VGG row
// reaches. At 8 rows the stem and block1 convs are above
// parallelThreshold, so the parallel fan-out runs as well.
func resnetDigest(t *testing.T) uint64 {
	t.Helper()
	const K, rows, rounds = 2, 8, 3
	train, _ := testData(t, 4, K*rows*rounds, 8, 103)
	fronts := make([]*nn.Sequential, K)
	var back *nn.Sequential
	for k := 0; k <= K; k++ {
		m := models.ResNetLite(4, 4, rng.New(353))
		f, b, err := models.Split(m.Net, m.DefaultCut)
		if err != nil {
			t.Fatal(err)
		}
		if k == K {
			back = b
		} else {
			fronts[k] = f
		}
	}
	shards := dataset.ShardIID(train.Len(), K, rng.New(104))
	srv := defaultServer(t, back, K, rounds, nil)
	platforms := make([]*Platform, K)
	for k := range platforms {
		platforms[k] = defaultPlatform(t, k, fronts[k], train.Subset(shards[k]), rounds, func(c *PlatformConfig) {
			c.Batch = rows
		})
	}
	if _, err := RunLocal(srv, platforms); err != nil {
		t.Fatal(err)
	}
	return digestNets(fronts, back)
}

// mlpBenchShapeDigest trains the MLP at the repository benchmark's
// train_mlp_tcp shape — 3072-64-10, 2 platforms x 1 row, sequential,
// raw codec — with both parties clipping gradients at clip, and returns
// the weight digest. At one row every platform round is the 3072x64
// input layer's update alone.
func mlpBenchShapeDigest(t *testing.T, clip float32) uint64 {
	t.Helper()
	const K, rounds = 2, 24
	train, _ := testData(t, 10, K*rounds, 8, 107)
	flat := flatten(train)
	fronts := make([]*nn.Sequential, K)
	var back *nn.Sequential
	for k := 0; k <= K; k++ {
		m := models.MLP(flat.X.Dim(1), []int{64}, 10, rng.New(359))
		f, b, err := models.Split(m.Net, m.DefaultCut)
		if err != nil {
			t.Fatal(err)
		}
		if k == K {
			back = b
		} else {
			fronts[k] = f
		}
	}
	shards := dataset.ShardIID(flat.Len(), K, rng.New(108))
	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) { c.ClipGrads = clip })
	platforms := make([]*Platform, K)
	for k := range platforms {
		platforms[k] = defaultPlatform(t, k, fronts[k], flat.Subset(shards[k]), rounds, func(c *PlatformConfig) {
			c.Batch = 1
			c.ClipGrads = clip
		})
	}
	if _, err := RunLocal(srv, platforms); err != nil {
		t.Fatal(err)
	}
	return digestNets(fronts, back)
}

// vggServeForwardDigest runs the serving path's compute once: an
// eval-mode (train=false) VGG-lite width-8 forward of the given rows,
// front then back, and hashes the raw bits of the back half's logits.
func vggServeForwardDigest(t *testing.T, rows int) uint64 {
	t.Helper()
	data, _ := testData(t, 10, rows, 8, 101)
	m := models.VGGLite(10, 8, rng.New(347))
	front, back, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	logits := back.Forward(front.Forward(data.X, false), false)
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range logits.Data() {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestRoundModeDigests pins the training trajectory of every round mode
// and staleness setting to literal weight digests, so a scheduler
// change that reorders a single message, forward or optimizer step
// shows up across commits, not only as a within-commit comparison. The
// values are the float bit patterns of amd64 code generation; the same
// table must pass with and without the purego tag, since the assembly
// kernels and the generic reference are bit-identical.
func TestRoundModeDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64: the arm64 gc compiler fuses multiply-add, which rounds differently")
	}
	cases := []struct {
		name         string
		mode         RoundMode
		staleness    int
		l1sync       int
		labelSharing bool
		want         uint64
	}{
		{"sequential", RoundModeSequential, 0, 0, false, 0xcb5d9508fb3ab82b},
		{"sequential/label-sharing", RoundModeSequential, 0, 0, true, 0xcb5d9508fb3ab82b},
		{"concat", RoundModeConcat, 0, 0, false, 0xaebc85d582d86131},
		{"concat/label-sharing", RoundModeConcat, 0, 0, true, 0xaebc85d582d86131},
		{"stale-0", RoundModeSequential, 0, 0, false, 0xcb5d9508fb3ab82b},
		{"stale-0/label-sharing", RoundModeSequential, 0, 0, true, 0xcb5d9508fb3ab82b},
		{"stale-1", RoundModeSequential, 1, 0, false, 0x43ea70d5669760d7},
		{"stale-1/label-sharing", RoundModeSequential, 1, 0, true, 0xcb5d9508fb3ab82b},
		{"stale-2", RoundModeSequential, 2, 0, false, 0x163d42fbc977f913},
		{"stale-2/label-sharing", RoundModeSequential, 2, 0, true, 0xbd47087eb3bdc8bf},
		// The splitfed preset: a cap at the L1-sync period P.
		{"splitfed", RoundModeSequential, 2, 2, false, 0xcebe32f484d0ef58},
		{"splitfed/label-sharing", RoundModeSequential, 2, 2, true, 0xbc3cd0fd84852908},
		// Under L1 sync every P rounds, a cap K >= P is splitfed's
		// schedule: every window already ends at the next sync boundary,
		// so the stagger cap K-1 never binds. Below P it binds.
		{"stale-1/l1sync-2", RoundModeSequential, 1, 2, false, 0x7c5e0a5c345a4078},
		{"stale-1/l1sync-2/label-sharing", RoundModeSequential, 1, 2, true, 0x9e7155010179cfa2},
		{"stale-3/l1sync-2", RoundModeSequential, 3, 2, false, 0xcebe32f484d0ef58},
		{"stale-3/l1sync-2/label-sharing", RoundModeSequential, 3, 2, true, 0xbc3cd0fd84852908},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := modeDigest(t, tc.mode, tc.staleness, tc.l1sync, tc.labelSharing); got != tc.want {
				t.Errorf("digest %#016x, want %#016x", got, tc.want)
			}
		})
	}
	t.Run("vgg-lite/int8/sequential", func(t *testing.T) {
		if got, want := vggInt8Digest(t), uint64(0xbd33df46bc6d2e51); got != want {
			t.Errorf("digest %#016x, want %#016x", got, want)
		}
	})
	t.Run("vgg-lite/w8/int8/sequential/2x16", func(t *testing.T) {
		if got, want := vggBenchShapeDigest(t), uint64(0x63fc0225acd8ece0); got != want {
			t.Errorf("digest %#016x, want %#016x", got, want)
		}
	})
	t.Run("vgg-lite/w8/serve-forward/8", func(t *testing.T) {
		if got, want := vggServeForwardDigest(t, 8), uint64(0x0f76b53c3abe519a); got != want {
			t.Errorf("digest %#016x, want %#016x", got, want)
		}
	})
	// Three rows do not split evenly over the workers of a per-sample
	// fan-out.
	t.Run("vgg-lite/w8/serve-forward/3", func(t *testing.T) {
		if got, want := vggServeForwardDigest(t, 3), uint64(0x258ce04fd5090726); got != want {
			t.Errorf("digest %#016x, want %#016x", got, want)
		}
	})
	t.Run("resnet-lite/sequential", func(t *testing.T) {
		if got, want := resnetDigest(t), uint64(0xb95b72f68c3858d6); got != want {
			t.Errorf("digest %#016x, want %#016x", got, want)
		}
	})
	t.Run("mlp-3072-64/sequential/2x1/clip-5", func(t *testing.T) {
		if got, want := mlpBenchShapeDigest(t, 5), uint64(0xd7a07847bd507eab); got != want {
			t.Errorf("digest %#016x, want %#016x", got, want)
		}
	})
	// At 0.01 the clip binds on most gradient entries of both parties.
	t.Run("mlp-3072-64/sequential/2x1/clip-0.01", func(t *testing.T) {
		if got, want := mlpBenchShapeDigest(t, 0.01), uint64(0x326cf275a4e35ce2); got != want {
			t.Errorf("digest %#016x, want %#016x", got, want)
		}
	})
}
