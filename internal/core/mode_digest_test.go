package core

import (
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
}
