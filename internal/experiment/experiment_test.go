package experiment

import (
	"reflect"
	"strings"
	"testing"

	"medsplit/internal/core"
	"medsplit/internal/geonet"
)

// fastCfg is a config small enough for unit tests: MLP on a tiny
// corpus. The full VGG/ResNet configurations run in the benchmarks and
// cmd/figures.
func fastCfg() Config {
	return Config{
		Arch:         ArchMLP,
		Classes:      4,
		TrainSamples: 160,
		TestSamples:  48,
		Platforms:    2,
		Rounds:       20,
		TotalBatch:   16,
		EvalEvery:    10,
		Seed:         1,
	}
}

func TestRunSplitProducesCurve(t *testing.T) {
	res, err := RunSplit(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) == 0 {
		t.Fatal("empty curve")
	}
	if res.TrainingBytes == 0 {
		t.Fatal("no communication recorded")
	}
	if res.FinalAccuracy < 0 || res.FinalAccuracy > 1 {
		t.Fatalf("accuracy %v", res.FinalAccuracy)
	}
	// Bytes must be cumulative and strictly increasing.
	prev := int64(-1)
	for _, p := range res.Curve.Points {
		if p.Bytes <= prev {
			t.Fatalf("bytes not increasing: %v", res.Curve.Points)
		}
		prev = p.Bytes
	}
}

func TestRunSyncSGDProducesCurve(t *testing.T) {
	res, err := RunSyncSGD(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) == 0 || res.TrainingBytes == 0 {
		t.Fatalf("curve %v bytes %d", res.Curve.Points, res.TrainingBytes)
	}
}

func TestRunFedAvgProducesCurve(t *testing.T) {
	cfg := fastCfg()
	cfg.LocalSteps = 2
	res, err := RunFedAvg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) == 0 || res.TrainingBytes == 0 {
		t.Fatalf("curve %v bytes %d", res.Curve.Points, res.TrainingBytes)
	}
}

// The paper's headline: at the same round schedule the split framework
// transmits less than full-model synchronous SGD (model ≫ activations)
// — here with the MLP whose 200k params dwarf its 64-unit hidden
// activations.
func TestFig4MeasuredSplitWins(t *testing.T) {
	cmp, err := Fig4Measured(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Results) != 2 {
		t.Fatalf("%d results", len(cmp.Results))
	}
	split, sgd := cmp.Results[0], cmp.Results[1]
	if split.TrainingBytes >= sgd.TrainingBytes {
		t.Fatalf("split %d bytes >= sgd %d bytes", split.TrainingBytes, sgd.TrainingBytes)
	}
	tbl := cmp.Table().String()
	for _, want := range []string{"split (proposed)", "large-scale sync SGD", "transmitted"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestImbalanceAblationRuns(t *testing.T) {
	cfg := fastCfg()
	cfg.Sharding = ShardingPowerLaw
	cfg.Alpha = 1.5
	out, err := Imbalance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.ShardSizes) != cfg.Platforms {
		t.Fatalf("shard sizes %v", out.ShardSizes)
	}
	if out.ShardSizes[0] <= out.ShardSizes[1] {
		t.Fatalf("power-law shards not imbalanced: %v", out.ShardSizes)
	}
	if out.Uniform.FinalAccuracy < 0 || out.Proportional.FinalAccuracy < 0 {
		t.Fatal("missing accuracies")
	}
	tbl := out.Table().String()
	if !strings.Contains(tbl, "proportional minibatch (paper)") {
		t.Fatalf("table:\n%s", tbl)
	}
}

// Every scheme's runner annotates its curve from the same meters, so a
// wall-clock comparison across the three never reads 0s for one of them.
func TestSimulatedWallClockAnnotated(t *testing.T) {
	for name, run := range map[string]Runner{"split": RunSplit, "syncsgd": RunSyncSGD, "fedavg": RunFedAvg} {
		t.Run(name, func(t *testing.T) {
			cfg := fastCfg()
			cfg.Topology = geonet.DefaultHospitalTopology()
			cfg.Regions = []geonet.Region{"snuh-seoul", "ucf-orlando"}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.RoundTime <= 0 {
				t.Fatal("no round-time estimate")
			}
			for _, p := range res.Curve.Points {
				if p.SimTime <= 0 {
					t.Fatalf("point %d missing sim time", p.Round)
				}
			}
		})
	}
}

// The baselines are as reproducible as the split runner: one config,
// run twice, gives the same final weights and the same curve.
func TestBaselinesDeterministicAcrossRuns(t *testing.T) {
	for name, run := range map[string]Runner{"syncsgd": RunSyncSGD, "fedavg": RunFedAvg} {
		t.Run(name, func(t *testing.T) {
			cfg := fastCfg()
			cfg.LocalSteps = 2
			a, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.WeightDigest == 0 || a.WeightDigest != b.WeightDigest {
				t.Fatalf("weight digests %016x / %016x, want equal and non-zero", a.WeightDigest, b.WeightDigest)
			}
			if !reflect.DeepEqual(a.Curve, b.Curve) {
				t.Fatalf("curves differ:\n%v\n%v", a.Curve.Points, b.Curve.Points)
			}
		})
	}
}

// The parameter-exchange baselines have no split exchange to schedule,
// so they refuse a round mode instead of ignoring it, even the lockstep
// sequential one spelled out.
func TestBaselinesRejectRoundMode(t *testing.T) {
	for name, run := range map[string]Runner{"syncsgd": RunSyncSGD, "fedavg": RunFedAvg} {
		for _, mc := range []struct {
			name string
			mut  func(*Config)
		}{
			{"concat", func(c *Config) { c.Mode = core.RoundModeConcat }},
			{"stale 0", func(c *Config) { c.Mode = core.RoundModeSequential }},
			{"staleness cap", func(c *Config) { c.Staleness = 2 }},
		} {
			t.Run(name+"/"+mc.name, func(t *testing.T) {
				cfg := fastCfg()
				mc.mut(&cfg)
				if _, err := run(cfg); err == nil {
					t.Fatal("round mode accepted")
				}
			})
		}
	}
}

func TestRegionCountValidated(t *testing.T) {
	cfg := fastCfg()
	cfg.Topology = geonet.DefaultHospitalTopology()
	cfg.Regions = []geonet.Region{"snuh-seoul"} // 1 region, 2 platforms
	if _, err := RunSplit(cfg); err == nil {
		t.Fatal("region/platform mismatch accepted")
	}
}

func TestUnknownArchRejected(t *testing.T) {
	cfg := fastCfg()
	cfg.Arch = "transformer"
	if _, err := RunSplit(cfg); err == nil {
		t.Fatal("unknown arch accepted")
	}
}

func TestUnknownShardingRejected(t *testing.T) {
	cfg := fastCfg()
	cfg.Sharding = "by-vibes"
	if _, err := RunSplit(cfg); err == nil {
		t.Fatal("unknown sharding accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := RunSplit(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSplit(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAccuracy != b.FinalAccuracy || a.TrainingBytes != b.TrainingBytes {
		t.Fatalf("non-deterministic: acc %v/%v bytes %d/%d",
			a.FinalAccuracy, b.FinalAccuracy, a.TrainingBytes, b.TrainingBytes)
	}
}

func TestLabelSharingAblationMovesFewerBytes(t *testing.T) {
	private, err := RunSplit(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.LabelSharing = true
	sharing, err := RunSplit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Label sharing drops the logits/loss-grad round trip, so it must
	// cost less wire — the price is label privacy, not bytes.
	if sharing.TrainingBytes >= private.TrainingBytes {
		t.Fatalf("label sharing %d >= label private %d bytes",
			sharing.TrainingBytes, private.TrainingBytes)
	}
}

func TestCutDepthAblation(t *testing.T) {
	// MLP layers: fc1, tanh1, head. Cut=1 puts only fc1 on the platform
	// (activations pre-tanh); cut=2 is the default.
	cfg := fastCfg()
	cfg.Cut = 1
	res, err := RunSplit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainingBytes == 0 {
		t.Fatal("no traffic")
	}
}

func TestL1SyncAblationRuns(t *testing.T) {
	cfg := fastCfg()
	cfg.L1SyncEvery = 5
	res, err := RunSplit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Syncing L1 through the server adds ModelPush traffic on top of the
	// four-message exchange.
	noSync, err := RunSplit(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainingBytes <= noSync.TrainingBytes {
		t.Fatalf("L1 sync (%d bytes) should cost more than none (%d bytes)",
			res.TrainingBytes, noSync.TrainingBytes)
	}
}

func TestConcatRoundsMode(t *testing.T) {
	cfg := fastCfg()
	cfg.Mode = core.RoundModeConcat
	res, err := RunSplit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) == 0 {
		t.Fatal("no curve")
	}
}

func TestCurveTableRenders(t *testing.T) {
	res, err := RunSplit(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := CurveTable(res).String()
	if !strings.Contains(out, "split (proposed)") {
		t.Fatalf("curve table:\n%s", out)
	}
}

func TestProportionalBatchesChangeAllocation(t *testing.T) {
	cfg := fastCfg()
	cfg.Sharding = ShardingPowerLaw
	cfg.Alpha = 1.5
	shards, _, uniform, err := BuildData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Proportional = true
	_, _, prop, err := BuildData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(uniform) != len(prop) {
		t.Fatal("length mismatch")
	}
	if uniform[0] == prop[0] && uniform[1] == prop[1] {
		t.Fatalf("proportional allocation %v identical to uniform %v for shards %d/%d",
			prop, uniform, shards[0].Len(), shards[1].Len())
	}
}

func TestRunReplicatedAggregates(t *testing.T) {
	cfg := fastCfg()
	cfg.Rounds = 10
	cfg.EvalEvery = 10
	rep, err := RunReplicated(RunSplit, cfg, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("%d runs", len(rep.Runs))
	}
	if rep.MeanAccuracy < 0 || rep.MeanAccuracy > 1 {
		t.Fatalf("mean accuracy %v", rep.MeanAccuracy)
	}
	// Byte counts are shape-deterministic: zero variance across seeds.
	if rep.StdBytes != 0 {
		t.Fatalf("byte std %v, want 0", rep.StdBytes)
	}
	if rep.String() == "" {
		t.Fatal("empty summary")
	}
	if _, err := RunReplicated(RunSplit, cfg, nil); err == nil {
		t.Fatal("no seeds accepted")
	}
}

func TestRunReplicatedPropagatesErrors(t *testing.T) {
	cfg := fastCfg()
	cfg.Arch = "bogus"
	if _, err := RunReplicated(RunSplit, cfg, []uint64{1}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestAugmentedSplitTrainingRuns(t *testing.T) {
	// CNN config with platform-side augmentation enabled end to end.
	cfg := Config{
		Arch:         ArchVGG,
		Classes:      3,
		Width:        2,
		TrainSamples: 90,
		TestSamples:  30,
		Platforms:    2,
		Rounds:       6,
		TotalBatch:   8,
		EvalEvery:    6,
		Seed:         5,
		Augment:      true,
	}
	res, err := RunSplit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) == 0 {
		t.Fatal("no curve")
	}
}
