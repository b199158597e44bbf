package core

import (
	"strings"
	"testing"

	"medsplit/internal/dataset"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
)

// testData builds a small deterministic dataset.
func testData(t *testing.T, classes, train, test int, seed uint64) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	return dataset.SynthCIFAR(dataset.SynthConfig{Classes: classes, Train: train, Test: test, Seed: seed})
}

// buildSplitMLP returns a fresh MLP on flattened inputs split at the
// default cut. MLPs keep core tests fast; CNN paths are covered by the
// models and experiment tests.
func buildSplitMLP(t *testing.T, seed uint64, in, classes int) (front, back *nn.Sequential) {
	t.Helper()
	m := models.MLP(in, []int{32}, classes, rng.New(seed))
	f, b, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	return f, b
}

// buildFronts builds K identically initialized fronts (one per
// platform — layer instances cache activations, so platforms cannot
// share one front) plus the single server-side back. Same seed ⇒ same
// initial L1 weights, the paper's starting postulate.
func buildFronts(t *testing.T, seed uint64, k, in, classes int) (fronts []*nn.Sequential, back *nn.Sequential) {
	t.Helper()
	for i := 0; i < k; i++ {
		f, b := buildSplitMLP(t, seed, in, classes)
		fronts = append(fronts, f)
		if i == 0 {
			back = b
		}
	}
	return fronts, back
}

// flatten turns an image dataset into vectors for MLP tests.
func flatten(d *dataset.Dataset) *dataset.Dataset {
	n := d.X.Dim(0)
	return &dataset.Dataset{
		X:       d.X.Reshape(n, d.X.Size()/n),
		Labels:  d.Labels,
		Classes: d.Classes,
	}
}

func defaultServer(t *testing.T, back *nn.Sequential, platforms, rounds int, mut func(*ServerConfig)) *Server {
	t.Helper()
	cfg := ServerConfig{
		Back:      back,
		Opt:       &nn.SGD{LR: 0.05},
		Platforms: platforms,
		Rounds:    rounds,
		EvalEvery: 0,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func defaultPlatform(t *testing.T, id int, front *nn.Sequential, shard *dataset.Dataset, rounds int, mut func(*PlatformConfig)) *Platform {
	t.Helper()
	cfg := PlatformConfig{
		ID:     id,
		Front:  front,
		Opt:    &nn.SGD{LR: 0.05},
		Loss:   nn.SoftmaxCrossEntropy{},
		Shard:  shard,
		Batch:  8,
		Rounds: rounds,
		Seed:   uint64(100 + id),
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// With one platform and SGD, split training must be bit-for-bit
// identical to centralized training of the unsplit model on the same
// batches: the cut only relocates computation.
func TestSplitEqualsCentralizedSinglePlatform(t *testing.T) {
	train, _ := testData(t, 4, 64, 8, 1)
	flat := flatten(train)
	in := flat.X.Dim(1)

	const rounds = 10

	// Centralized reference.
	ref := models.MLP(in, []int{32}, 4, rng.New(7))
	refOpt := &nn.SGD{LR: 0.05}
	loss := nn.SoftmaxCrossEntropy{}
	sampler := dataset.NewBatchSampler(seqIdx(flat.Len()), 8, rng.New(100^0x9e3779b97f4a7c15))
	for r := 0; r < rounds; r++ {
		x, labels := flat.Batch(sampler.Next())
		nn.ZeroGrads(ref.Net.Params())
		logits := ref.Net.Forward(x, true)
		_, g := loss.Loss(logits, labels)
		ref.Net.Backward(g)
		refOpt.Step(ref.Net.Params())
	}

	// Split run with identical seeds. The platform sampler must draw the
	// same batches: NewPlatform seeds its sampler with Seed^const, so we
	// pass Seed=100 and seeded the reference sampler identically above.
	frontM := models.MLP(in, []int{32}, 4, rng.New(7))
	front, back, err := models.Split(frontM.Net, frontM.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	srv := defaultServer(t, back, 1, rounds, nil)
	plat := defaultPlatform(t, 0, front, flat, rounds, func(c *PlatformConfig) {
		c.Seed = 100
	})
	if _, err := RunLocal(srv, []*Platform{plat}); err != nil {
		t.Fatal(err)
	}

	refParams := ref.Net.Params()
	gotParams := frontM.Net.Params()
	for i := range refParams {
		if !tensor.AllClose(refParams[i].W, gotParams[i].W, 1e-6) {
			t.Fatalf("param %d (%s) diverged between centralized and split training", i, refParams[i].Name)
		}
	}
}

func TestMultiPlatformTrainingReducesLoss(t *testing.T) {
	train, test := testData(t, 4, 240, 60, 2)
	flat, flatTest := flatten(train), flatten(test)
	in := flat.X.Dim(1)

	const rounds, K = 40, 3
	fronts, back := buildFronts(t, 11, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(3))

	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) {
		c.EvalEvery = 20
	})
	meters := make([]*transport.Meter, K)
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		meters[k] = &transport.Meter{}
		k := k
		platforms[k] = defaultPlatform(t, k, fronts[k], flat.Subset(shards[k]), rounds, func(c *PlatformConfig) {
			c.Meter = meters[k]
			c.EvalEvery = 20
			if k == 0 {
				c.EvalData = flatTest
			}
		})
	}
	stats, err := RunLocal(srv, platforms)
	if err != nil {
		t.Fatal(err)
	}
	// Loss trends down.
	first := stats[0].Rounds[0].Loss
	last := stats[0].FinalLoss()
	if last >= first {
		t.Fatalf("platform 0 loss did not decrease: %v -> %v", first, last)
	}
	// Evaluator measured accuracy above chance; others recorded -1.
	finalEval := stats[0].Evals[len(stats[0].Evals)-1]
	if finalEval.Accuracy < 0.3 {
		t.Fatalf("final accuracy %v (chance 0.25)", finalEval.Accuracy)
	}
	if stats[1].Evals[0].Accuracy != -1 {
		t.Fatal("non-evaluator reported accuracy")
	}
	// All platforms moved training bytes.
	for k, m := range meters {
		if TrainingBytes(m) == 0 {
			t.Fatalf("platform %d reports zero training bytes", k)
		}
	}
	// The evaluator also moved eval traffic, which must be excluded from
	// training bytes.
	if TrainingBytes(meters[0]) >= meters[0].TotalBytes() {
		t.Fatal("eval/control traffic leaked into training bytes")
	}
}

// Sharing one front instance across platforms in the same process would
// corrupt caches; each platform needs its own front. This test documents
// the supported pattern: separate instances, optionally synced via
// L1SyncEvery.
func TestL1SyncConvergesFronts(t *testing.T) {
	train, _ := testData(t, 4, 120, 8, 4)
	flat := flatten(train)
	in := flat.X.Dim(1)
	const rounds, K = 8, 2

	// Distinct per-platform fronts (different init seeds), shared back.
	m0 := models.MLP(in, []int{32}, 4, rng.New(21))
	m1 := models.MLP(in, []int{32}, 4, rng.New(22))
	f0, back, err := models.Split(m0.Net, m0.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	f1, _, err := models.Split(m1.Net, m1.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	shards := dataset.ShardIID(flat.Len(), K, rng.New(5))
	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) {
		c.L1SyncEvery = 4
	})
	mk := func(id int, f *nn.Sequential) *Platform {
		return defaultPlatform(t, id, f, flat.Subset(shards[id]), rounds, func(c *PlatformConfig) {
			c.L1SyncEvery = 4
		})
	}
	if _, err := RunLocal(srv, []*Platform{mk(0, f0), mk(1, f1)}); err != nil {
		t.Fatal(err)
	}
	// After a sync round at the end (round 8 = multiple of 4), both
	// fronts hold identical weights.
	p0, p1 := f0.Params(), f1.Params()
	for i := range p0 {
		if !tensor.AllClose(p0[i].W, p1[i].W, 1e-6) {
			t.Fatalf("L1 param %d differs after sync: %v vs %v", i, p0[i].W, p1[i].W)
		}
	}
}

func TestConcatModeRuns(t *testing.T) {
	train, test := testData(t, 4, 120, 40, 6)
	flat, flatTest := flatten(train), flatten(test)
	in := flat.X.Dim(1)
	const rounds, K = 20, 2
	fronts, back := buildFronts(t, 31, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(7))
	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) {
		c.Mode = RoundModeConcat
		c.EvalEvery = 10
	})
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		k := k
		platforms[k] = defaultPlatform(t, k, fronts[k], flat.Subset(shards[k]), rounds, func(c *PlatformConfig) {
			c.EvalEvery = 10
			if k == 0 {
				c.EvalData = flatTest
			}
			// Different batch sizes exercise the union-mean rescaling.
			c.Batch = 6 + 4*k
		})
	}
	stats, err := RunLocal(srv, platforms)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].FinalLoss() >= stats[0].Rounds[0].Loss {
		t.Fatalf("concat mode loss did not decrease: %v -> %v",
			stats[0].Rounds[0].Loss, stats[0].FinalLoss())
	}
}

// Concat mode with a single platform must match sequential mode exactly:
// with one platform the union batch IS the platform batch.
func TestConcatEqualsSequentialSinglePlatform(t *testing.T) {
	train, _ := testData(t, 3, 60, 8, 8)
	flat := flatten(train)
	in := flat.X.Dim(1)
	const rounds = 6

	run := func(mode RoundMode) []*nn.Param {
		m := models.MLP(in, []int{16}, 3, rng.New(77))
		front, back, err := models.Split(m.Net, m.DefaultCut)
		if err != nil {
			t.Fatal(err)
		}
		srv := defaultServer(t, back, 1, rounds, func(c *ServerConfig) { c.Mode = mode })
		plat := defaultPlatform(t, 0, front, flat, rounds, nil)
		if _, err := RunLocal(srv, []*Platform{plat}); err != nil {
			t.Fatal(err)
		}
		return m.Net.Params()
	}
	seqParams := run(RoundModeSequential)
	catParams := run(RoundModeConcat)
	for i := range seqParams {
		if !tensor.AllClose(seqParams[i].W, catParams[i].W, 1e-6) {
			t.Fatalf("param %d differs between modes", i)
		}
	}
}

func TestLabelSharingMode(t *testing.T) {
	train, _ := testData(t, 4, 120, 8, 9)
	flat := flatten(train)
	in := flat.X.Dim(1)
	const rounds, K = 15, 2
	fronts, back := buildFronts(t, 41, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(10))
	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) {
		c.LabelSharing = true
		c.Loss = nn.SoftmaxCrossEntropy{}
	})
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		platforms[k] = defaultPlatform(t, k, fronts[k], flat.Subset(shards[k]), rounds, func(c *PlatformConfig) {
			c.LabelSharing = true
			c.Loss = nil // loss lives on the server in this mode
		})
	}
	stats, err := RunLocal(srv, platforms)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].FinalLoss() >= stats[0].Rounds[0].Loss {
		t.Fatalf("label-sharing loss did not decrease: %v -> %v",
			stats[0].Rounds[0].Loss, stats[0].FinalLoss())
	}
}

func TestConfigValidation(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 12)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 51, flat.X.Dim(1), 2)

	if _, err := NewServer(ServerConfig{Opt: &nn.SGD{}, Platforms: 1, Rounds: 1}); err == nil {
		t.Fatal("nil back accepted")
	}
	if _, err := NewServer(ServerConfig{Back: back, Platforms: 1, Rounds: 1}); err == nil {
		t.Fatal("nil optimizer accepted")
	}
	if _, err := NewServer(ServerConfig{Back: back, Opt: &nn.SGD{}, Platforms: 0, Rounds: 1}); err == nil {
		t.Fatal("zero platforms accepted")
	}
	if _, err := NewServer(ServerConfig{Back: back, Opt: &nn.SGD{}, Platforms: 1, Rounds: 1, LabelSharing: true}); err == nil {
		t.Fatal("label sharing without loss accepted")
	}
	if _, err := NewServer(ServerConfig{Back: back, Opt: &nn.SGD{}, Platforms: 1, Rounds: 1, Mode: RoundMode(9)}); err == nil {
		t.Fatal("bad mode accepted")
	}

	base := PlatformConfig{
		ID: 0, Front: front, Opt: &nn.SGD{}, Loss: nn.SoftmaxCrossEntropy{},
		Shard: flat, Batch: 4, Rounds: 1,
	}
	bad := base
	bad.Front = nil
	if _, err := NewPlatform(bad); err == nil {
		t.Fatal("nil front accepted")
	}
	bad = base
	bad.Batch = 0
	if _, err := NewPlatform(bad); err == nil {
		t.Fatal("zero batch accepted")
	}
	bad = base
	bad.Loss = nil
	if _, err := NewPlatform(bad); err == nil {
		t.Fatal("label-private without loss accepted")
	}
	bad = base
	bad.Shard = nil
	if _, err := NewPlatform(bad); err == nil {
		t.Fatal("nil shard accepted")
	}
}

// Mismatched configurations must be rejected at the handshake, not
// produce silent divergence.
func TestHandshakeRejectsConfigMismatch(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 13)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 61, flat.X.Dim(1), 2)
	srv := defaultServer(t, back, 1, 5, nil)
	plat := defaultPlatform(t, 0, front, flat, 7, nil) // 7 != 5 rounds
	_, err := RunLocal(srv, []*Platform{plat})
	if err == nil {
		t.Fatal("round-count mismatch accepted")
	}
	if !strings.Contains(err.Error(), "config") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRunLocalValidation(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 14)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 71, flat.X.Dim(1), 2)
	srv := defaultServer(t, back, 2, 1, nil)
	plat := defaultPlatform(t, 0, front, flat, 1, nil)
	if _, err := RunLocal(srv, []*Platform{plat}); err == nil {
		t.Fatal("platform count mismatch accepted")
	}
	if _, err := RunLocal(nil, nil); err == nil {
		t.Fatal("nil server accepted")
	}
}

func seqIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestLRScheduleAppliedDuringTraining(t *testing.T) {
	train, _ := testData(t, 3, 60, 8, 71)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 231, flat.X.Dim(1), 3)
	const rounds = 6

	serverOpt := &nn.SGD{LR: 1}
	platOpt := &nn.SGD{LR: 1}
	sched := nn.StepDecay(0.1, 0.5, 3)
	srv, err := NewServer(ServerConfig{
		Back: back, Opt: serverOpt, Platforms: 1, Rounds: rounds, LRSchedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	plat, err := NewPlatform(PlatformConfig{
		ID: 0, Front: front, Opt: platOpt, Loss: nn.SoftmaxCrossEntropy{},
		Shard: flat, Batch: 8, Rounds: rounds, Seed: 72, LRSchedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLocal(srv, []*Platform{plat}); err != nil {
		t.Fatal(err)
	}
	// After round 5 the schedule has halved once: 0.1 → 0.05.
	if d := serverOpt.LR - 0.05; d > 1e-7 || d < -1e-7 {
		t.Fatalf("server LR %v, want 0.05", serverOpt.LR)
	}
	if d := platOpt.LR - 0.05; d > 1e-7 || d < -1e-7 {
		t.Fatalf("platform LR %v, want 0.05", platOpt.LR)
	}
}

// Concat scheduling and label sharing compose: the server fuses all
// platforms' activations AND computes the loss from shipped labels.
func TestConcatWithLabelSharing(t *testing.T) {
	train, _ := testData(t, 3, 120, 8, 81)
	flat := flatten(train)
	const rounds, K = 10, 2
	fronts, back := buildFronts(t, 251, K, flat.X.Dim(1), 3)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(82))
	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) {
		c.Mode = RoundModeConcat
		c.LabelSharing = true
		c.Loss = nn.SoftmaxCrossEntropy{}
	})
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		k := k
		platforms[k] = defaultPlatform(t, k, fronts[k], flat.Subset(shards[k]), rounds, func(c *PlatformConfig) {
			c.LabelSharing = true
			c.Loss = nil
			c.Batch = 4 + 4*k // unequal batches through the concat path
		})
	}
	stats, err := RunLocal(srv, platforms)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].FinalLoss() >= stats[0].Rounds[0].Loss {
		t.Fatalf("concat+labelshare loss did not decrease: %v -> %v",
			stats[0].Rounds[0].Loss, stats[0].FinalLoss())
	}
}

// Augmented platform training through the full protocol.
func TestPlatformAugmentationInProtocol(t *testing.T) {
	train, _ := testData(t, 3, 60, 8, 83)
	// Keep images rank-4 (no flatten): augmentation needs NCHW.
	m := models.VGGLite(3, 2, rng.New(261))
	front, back, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	srv := defaultServer(t, back, 1, 4, nil)
	plat := defaultPlatform(t, 0, front, train, 4, func(c *PlatformConfig) {
		c.Batch = 6
		c.Augment = dataset.NewAugmenter(4, true, rng.New(84))
	})
	if _, err := RunLocal(srv, []*Platform{plat}); err != nil {
		t.Fatal(err)
	}
}

// models.Split tells the input layer to stop computing its input
// gradient. Nothing reads that gradient, so a session must leave every
// weight where it would have been with the gradient computed — on the
// dense input layer and on the convolutional one.
func TestInputGradSkipLeavesWeightsBitIdentical(t *testing.T) {
	train, _ := testData(t, 3, 96, 8, 91)
	const rounds, K = 20, 2
	cases := []struct {
		name  string
		shard *dataset.Dataset
		build func() *models.Model
	}{
		{"mlp", flatten(train), func() *models.Model {
			return models.MLP(train.X.Size()/train.Len(), []int{32}, 3, rng.New(17))
		}},
		{"vgg-lite", train, func() *models.Model { return models.VGGLite(3, 2, rng.New(17)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runOnce := func(skip bool) uint64 {
				fronts := make([]*nn.Sequential, K)
				var back *nn.Sequential
				for k := range fronts {
					m := tc.build()
					f, b, err := models.Split(m.Net, m.DefaultCut)
					if err != nil {
						t.Fatal(err)
					}
					f.Layers()[0].(interface{ SkipInputGrad(bool) }).SkipInputGrad(skip)
					fronts[k], back = f, b
				}
				srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) { c.ClipGrads = 0.5 })
				platforms := make([]*Platform, K)
				for k := range platforms {
					platforms[k] = defaultPlatform(t, k, fronts[k], tc.shard, rounds, func(c *PlatformConfig) {
						c.Batch = 4
						c.ClipGrads = 0.5
					})
				}
				if _, err := RunLocal(srv, platforms); err != nil {
					t.Fatal(err)
				}
				return digestNets(fronts, back)
			}
			if on, off := runOnce(true), runOnce(false); on != off {
				t.Fatalf("weight digest %#x with the input gradient skipped, %#x with it computed", on, off)
			}
		})
	}
}
