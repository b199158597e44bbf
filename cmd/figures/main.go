// Command figures regenerates every evaluation artifact of the paper:
//
//	figures -fig 4            Fig. 4, measured on the trainable lite models
//	figures -fig 4-analytic   Fig. 4, analytic at paper scale (VGG-16/ResNet-18)
//	figures -fig imbalance    the §II data-imbalance mitigation ablation
//	figures -fig cut-sweep    communication vs cut depth (why L1?)
//	figures -fig trace        the Fig. 2/3 four-message workflow, traced live
//	figures -fig wan          round time over the simulated hospital WAN
//	figures -fig all          everything (default)
//
// Add -quick for a smaller, faster measured configuration, and -csv to
// emit CSV instead of aligned tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"medsplit/internal/commmodel"
	"medsplit/internal/core"
	"medsplit/internal/dataset"
	"medsplit/internal/experiment"
	"medsplit/internal/geonet"
	"medsplit/internal/metrics"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/wire"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4, 4-analytic, imbalance, cut-sweep, trace, wan, all")
	quick := flag.Bool("quick", false, "smaller measured configurations (seconds instead of minutes)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Uint64("seed", 1, "experiment seed")
	flag.Parse()

	if err := run(*fig, *quick, *csv, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(fig string, quick, csv bool, seed uint64) error {
	emit := func(t *metrics.Table) {
		if csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	switch fig {
	case "4":
		return fig4Measured(quick, seed, emit)
	case "4-analytic":
		return fig4Analytic(emit)
	case "imbalance":
		return imbalance(quick, seed, emit)
	case "cut-sweep":
		return cutSweep(emit)
	case "trace":
		return trace(seed)
	case "wan":
		return wan(quick, seed, emit)
	case "all":
		if err := trace(seed); err != nil {
			return err
		}
		if err := fig4Analytic(emit); err != nil {
			return err
		}
		if err := cutSweep(emit); err != nil {
			return err
		}
		if err := fig4Measured(quick, seed, emit); err != nil {
			return err
		}
		if err := wan(quick, seed, emit); err != nil {
			return err
		}
		return imbalance(quick, seed, emit)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

// measuredConfig is the shared Fig. 4 workload at the two scales.
func measuredConfig(arch experiment.Arch, classes int, quick bool, seed uint64) experiment.Config {
	cfg := experiment.Config{
		Arch:         arch,
		Classes:      classes,
		Platforms:    4,
		Seed:         seed,
		TrainSamples: 1200,
		TestSamples:  300,
		Rounds:       80,
		TotalBatch:   32,
		EvalEvery:    16,
	}
	if quick {
		cfg.TrainSamples = 320
		cfg.TestSamples = 80
		cfg.Rounds = 24
		cfg.EvalEvery = 8
		cfg.Width = 4
	}
	return cfg
}

func fig4Measured(quick bool, seed uint64, emit func(*metrics.Table)) error {
	fmt.Println("=== Fig. 4 (measured, scaled-down trainable models) ===")
	fmt.Println("Byte counts are measured on metered transports; accuracy on a held-out set.")
	fmt.Println()
	for _, arch := range []experiment.Arch{experiment.ArchVGG, experiment.ArchResNet} {
		for _, classes := range []int{10, 100} {
			cfg := measuredConfig(arch, classes, quick, seed)
			cmp, err := experiment.Fig4Measured(cfg)
			if err != nil {
				return err
			}
			emit(cmp.Table())
			emit(experiment.CurveTable(cmp.Results...))
		}
	}
	return nil
}

func fig4Analytic(emit func(*metrics.Table)) error {
	fmt.Println("=== Fig. 4 (analytic, paper-scale VGG-16 / ResNet-18) ===")
	fmt.Println("Exact wire-format byte counts from architecture shapes; 4 platforms,")
	fmt.Println("batch 64, one epoch over a 50k-sample CIFAR-sized corpus.")
	fmt.Println("Paper reports (total GB, accuracy): VGG split 0.8GB@95% vs SGD 2GB@55%;")
	fmt.Println("ResNet split 0.5GB@75% vs SGD 1.5GB@10% — i.e. ratios of 2.5x and 3.0x.")
	fmt.Println()
	cfg := commmodel.Fig4Config{Platforms: 4, Batch: 64, DatasetSize: 50000, Epochs: 1}
	emit(commmodel.Fig4Table(cfg, commmodel.Fig4Analytic(cfg)))
	return nil
}

func imbalance(quick bool, seed uint64, emit func(*metrics.Table)) error {
	fmt.Println("=== Data-imbalance mitigation (paper §II) ===")
	fmt.Println("Power-law shard sizes; uniform vs proportional per-platform minibatches.")
	fmt.Println()
	cfg := measuredConfig(experiment.ArchVGG, 10, quick, seed)
	cfg.Sharding = experiment.ShardingPowerLaw
	cfg.Alpha = 1.5
	out, err := experiment.Imbalance(cfg)
	if err != nil {
		return err
	}
	emit(out.Table())
	return nil
}

func cutSweep(emit func(*metrics.Table)) error {
	fmt.Println("=== Cut-depth sweep (why cut after L1?) ===")
	fmt.Println("Per-round split traffic for every feasible cut of VGG-16 (4 platforms,")
	fmt.Println("batch 64). The paper's first-hidden-layer cut maximizes privacy (least")
	fmt.Println("platform-side model) at the highest communication point; deeper cuts")
	fmt.Println("trade privacy perimeter for wire volume.")
	fmt.Println()
	spec := models.VGG16Spec(10)
	batches := []int{64, 64, 64, 64}
	rows := commmodel.CutSweep(spec, 10, batches)
	t := &metrics.Table{
		Title:   "VGG-16 cut sweep",
		Headers: []string{"cut after", "act/sample", "bytes/round (4 platforms)"},
	}
	for _, r := range rows {
		t.AddRow(r.LayerName, fmt.Sprintf("%d", r.ActPerSamp), metrics.FormatBytes(r.SplitBytes))
	}
	emit(t)
	return nil
}

// wan measures round wall-clock over the geo-distributed hospital
// topology for both schemes — the deployment question the paper's title
// poses and its future work (Seoul National University Hospital)
// implies.
func wan(quick bool, seed uint64, emit func(*metrics.Table)) error {
	fmt.Println("=== Geo-distributed wall-clock (simulated WAN) ===")
	fmt.Println("Both schemes run over the simulated hospital WAN (latency + bandwidth per")
	fmt.Println("site, virtual clock); round time is the measured session time over rounds,")
	fmt.Println("evaluation traffic included. Byte counts are the measured training traffic.")
	fmt.Println()
	topo := geonet.DefaultHospitalTopology()
	regions := []geonet.Region{"snuh-seoul", "pusan-nat-univ", "chungang-univ", "ucf-orlando"}
	cfg := measuredConfig(experiment.ArchVGG, 10, quick, seed)
	cfg.Platforms = len(regions)
	cfg.Topology = topo
	cfg.Regions = regions
	split, err := experiment.RunSplit(cfg)
	if err != nil {
		return err
	}
	sgd, err := experiment.RunSyncSGD(cfg)
	if err != nil {
		return err
	}
	t := &metrics.Table{
		Title:   "WAN round time (4 hospitals incl. one intercontinental)",
		Headers: []string{"scheme", "bytes total", "round time", "total wall-clock"},
	}
	for _, r := range []*experiment.Result{split, sgd} {
		t.AddRow(r.Scheme,
			metrics.FormatBytes(r.TrainingBytes),
			(r.SimElapsed / time.Duration(cfg.Rounds)).String(),
			r.SimElapsed.String())
	}
	emit(t)
	return nil
}

// trace reproduces Fig. 2/3: it runs one real training round with a
// single platform and prints the observed message workflow.
func trace(seed uint64) error {
	fmt.Println("=== Fig. 2/3: protocol workflow (live trace) ===")
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{Classes: 4, Train: 32, Test: 8, Seed: seed})
	flat := &dataset.Dataset{
		X:       train.X.Reshape(train.Len(), train.X.Size()/train.Len()),
		Labels:  train.Labels,
		Classes: train.Classes,
	}
	m := models.MLP(flat.X.Dim(1), []int{32}, 4, rng.New(seed))
	front, back, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		return err
	}
	var rec core.Recorder
	srv, err := core.NewServer(core.ServerConfig{
		Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: 1, Rounds: 2, Trace: rec.Record,
	})
	if err != nil {
		return err
	}
	plat, err := core.NewPlatform(core.PlatformConfig{
		ID: 0, Front: front, Opt: &nn.SGD{LR: 0.05}, Loss: nn.SoftmaxCrossEntropy{},
		Shard: flat, Batch: 8, Rounds: 2, Seed: seed, Trace: rec.Record,
	})
	if err != nil {
		return err
	}
	if _, err := core.RunLocal(srv, []*core.Platform{plat}); err != nil {
		return err
	}
	step := map[wire.MsgType]string{
		wire.MsgActivations: "(1) L1 forward results, platform -> server",
		wire.MsgLogits:      "(2) Lk output, server -> platform",
		wire.MsgLossGrad:    "(3) loss gradients, platform -> server",
		wire.MsgCutGrad:     "(4) L2-input gradients, server -> platform",
	}
	for _, e := range rec.Events() {
		if e.Dir != "recv" {
			continue // each exchange appears once, at its receiver
		}
		if note, ok := step[e.Type]; ok {
			fmt.Printf("round %d  %-16s %6d bytes   %s\n", e.Round, e.Type, e.Bytes, note)
		}
	}
	fmt.Println()
	return nil
}
