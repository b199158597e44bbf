// Package medsplit's root benchmark suite regenerates the paper's
// evaluation artifacts under `go test -bench`:
//
//	BenchmarkFig4Measured   Fig. 4 on the trainable lite models (4 configs)
//	BenchmarkFig4Analytic   Fig. 4 at paper scale from exact shape math
//	BenchmarkImbalance      the §II proportional-minibatch ablation
//	BenchmarkCutDepth       communication vs cut depth (why L1?)
//	BenchmarkLabelSharing   4-message label-private vs 2-message sharing
//	BenchmarkRoundModes     sequential vs concatenated server scheduling
//	BenchmarkCompression    activation codecs: raw / f16 / int8 / top-k
//	BenchmarkSplitRound     one protocol round, end to end over pipes
//
// Every training benchmark reports wire bytes and final accuracy as
// custom metrics alongside wall time, so the figure data appears in the
// standard benchmark output.
package medsplit

import (
	"fmt"
	"testing"

	"medsplit/internal/commmodel"
	"medsplit/internal/core"
	"medsplit/internal/experiment"
)

// figCfg is the shared measured-figure configuration: big enough to
// show the communication/accuracy separation, small enough for a
// single-core benchmark run.
func figCfg(arch experiment.Arch, classes int) experiment.Config {
	cfg := experiment.Config{
		Arch:         arch,
		Classes:      classes,
		Width:        4,
		TrainSamples: 320,
		TestSamples:  80,
		Platforms:    4,
		Rounds:       24,
		TotalBatch:   32,
		EvalEvery:    8,
		Seed:         1,
	}
	if classes >= 100 {
		// 100-way classification needs more samples per class and more
		// rounds to clear chance level (1%).
		cfg.TrainSamples = 1000
		cfg.TestSamples = 200
		cfg.Rounds = 48
		cfg.EvalEvery = 16
	}
	return cfg
}

func reportRun(b *testing.B, res *experiment.Result) {
	b.Helper()
	b.ReportMetric(float64(res.TrainingBytes), "wire-bytes")
	b.ReportMetric(100*res.FinalAccuracy, "final-acc-%")
}

// BenchmarkFig4Measured regenerates the measured Fig. 4: each
// sub-benchmark is one {model}×{dataset} bar pair, reporting bytes and
// accuracy for the split framework and the sync-SGD baseline.
func BenchmarkFig4Measured(b *testing.B) {
	for _, arch := range []experiment.Arch{experiment.ArchVGG, experiment.ArchResNet} {
		for _, classes := range []int{10, 100} {
			name := fmt.Sprintf("%s_CIFAR%d", arch, classes)
			b.Run(name+"/split", func(b *testing.B) {
				var last *experiment.Result
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunSplit(figCfg(arch, classes))
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				reportRun(b, last)
			})
			b.Run(name+"/syncsgd", func(b *testing.B) {
				var last *experiment.Result
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunSyncSGD(figCfg(arch, classes))
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				reportRun(b, last)
			})
		}
	}
}

// BenchmarkFig4Analytic regenerates the paper-scale Fig. 4 numbers from
// exact shape arithmetic (VGG-16/ResNet-18, 4 platforms, batch 64, one
// CIFAR epoch) and reports the split and SGD gigabyte totals.
func BenchmarkFig4Analytic(b *testing.B) {
	cfg := commmodel.Fig4Config{Platforms: 4, Batch: 64, DatasetSize: 50000, Epochs: 1}
	var rows []commmodel.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = commmodel.Fig4Analytic(cfg)
	}
	for _, r := range rows {
		prefix := fmt.Sprintf("%s-%s", r.Model, r.Dataset)
		b.ReportMetric(float64(r.SplitBytes)/1e9, prefix+"-split-GB")
		b.ReportMetric(float64(r.SGDBytes)/1e9, prefix+"-sgd-GB")
	}
}

// BenchmarkImbalance runs the §II ablation: power-law imbalanced shards
// trained with uniform vs proportional minibatch allocation.
func BenchmarkImbalance(b *testing.B) {
	base := figCfg(experiment.ArchVGG, 10)
	base.Sharding = experiment.ShardingPowerLaw
	base.Alpha = 1.5
	for _, arm := range []struct {
		name         string
		proportional bool
	}{
		{"uniform", false},
		{"proportional", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := base
			cfg.Proportional = arm.proportional
			var last *experiment.Result
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunSplit(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkCutDepth sweeps the split point through the VGG-lite stack.
// The paper cuts after the first hidden layer (index 3: conv1+relu+pool);
// deeper cuts shrink the wire but enlarge the platform-side model.
func BenchmarkCutDepth(b *testing.B) {
	// Layer indices in VGGLite: 3 = after stage 1 (the paper's choice),
	// 6 = after stage 2, 9 = after stage 3, 11 = mid-head.
	for _, cut := range []int{3, 6, 9, 11} {
		b.Run(fmt.Sprintf("cut=%d", cut), func(b *testing.B) {
			cfg := figCfg(experiment.ArchVGG, 10)
			cfg.Cut = cut
			var last *experiment.Result
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunSplit(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkLabelSharing quantifies the byte cost of label privacy: the
// paper's 4-message exchange vs the 2-message variant that ships labels.
func BenchmarkLabelSharing(b *testing.B) {
	for _, arm := range []struct {
		name    string
		sharing bool
	}{
		{"label-private-4msg", false},
		{"label-sharing-2msg", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := figCfg(experiment.ArchVGG, 10)
			cfg.LabelSharing = arm.sharing
			var last *experiment.Result
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunSplit(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkRoundModes compares the server's two lockstep schedules:
// sequential (one optimizer step per platform per round) and concat
// (one step on the fused union batch).
func BenchmarkRoundModes(b *testing.B) {
	for _, mode := range []core.RoundMode{core.RoundModeSequential, core.RoundModeConcat} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := figCfg(experiment.ArchVGG, 10)
			cfg.Mode = mode
			var last *experiment.Result
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunSplit(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkSplitRound measures full protocol rounds (all four messages,
// both side's compute) on a small workload — the unit cost everything
// above is built from. Each iteration runs several rounds so the
// steady-state cost (where the tensor engine reuses buffers) dominates
// the one-time setup, for both the dense (MLP) and convolutional (VGG)
// halves of the engine.
func BenchmarkSplitRound(b *testing.B) {
	for _, arch := range []experiment.Arch{experiment.ArchMLP, experiment.ArchVGG} {
		b.Run(string(arch), func(b *testing.B) {
			cfg := figCfg(arch, 10)
			cfg.Rounds = 8
			cfg.EvalEvery = cfg.Rounds
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiment.RunSplit(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicatedRound measures what the WAL-backed replication
// tier adds to a training round: the same split session with no
// replication (the baseline every other benchmark runs), and with one
// and two warm followers applying the leader's step stream. The WALs
// live in a per-run temporary directory with the default fsync-every-
// append policy, so the replicated arms carry real durability costs.
func BenchmarkReplicatedRound(b *testing.B) {
	for _, replicas := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			cfg := figCfg(experiment.ArchMLP, 10)
			cfg.Rounds = 8
			cfg.EvalEvery = cfg.Rounds
			cfg.Replicas = replicas
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiment.RunSplit(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompression sweeps the activation-path codecs — the repo's
// extension of the paper toward the split-learning literature's
// communication-reduction techniques — reporting the bytes/accuracy
// trade-off per codec.
func BenchmarkCompression(b *testing.B) {
	for _, codec := range []string{"raw", "f16", "int8", "topk-0.25"} {
		b.Run(codec, func(b *testing.B) {
			cfg := figCfg(experiment.ArchVGG, 10)
			cfg.Codec = codec
			var last *experiment.Result
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunSplit(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportRun(b, last)
		})
	}
}
