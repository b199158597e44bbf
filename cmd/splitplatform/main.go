// Command splitplatform runs one medical platform (hospital) of the
// split-learning framework over TCP. It owns the raw local data shard
// and the model's first hidden layer L1; raw samples and labels never
// leave the process.
//
// All platforms and the server must share -arch, -classes, -width,
// -seed, -rounds and the eval schedule; the data corpus and shard
// assignment are derived deterministically from the shared seed, so
// every process independently computes the same shards. Exactly one
// platform should pass -evaluator when -evalevery is non-zero.
//
// The server's round mode (-mode and -stale on splitserver) needs no
// matching flag here: the platform always walks its session in
// order and blocks on the server's replies, so the server's processing
// order alone decides the consistency model.
//
// Long runs survive interruptions: -checkpoint-dir/-checkpoint-every
// write session snapshots at round boundaries (plus a last-boundary
// snapshot if the session dies mid-round), SIGINT/SIGTERM triggers a
// final checkpoint and a clean exit, -resume continues from a snapshot
// directory, and -rejoin-window lets the platform redial and rejoin a
// recovery-enabled server after a connection drop.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"medsplit/internal/compress"
	"medsplit/internal/core"
	"medsplit/internal/experiment"
	"medsplit/internal/metrics"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/transport"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7700", "server address")
		id        = flag.Int("id", 0, "platform id (0-based)")
		platforms = flag.Int("platforms", 2, "total number of platforms (for data sharding)")
		rounds    = flag.Int("rounds", 40, "training rounds")
		arch      = flag.String("arch", "vgg-lite", "model: mlp, vgg-lite, resnet-lite")
		classes   = flag.Int("classes", 10, "label count")
		width     = flag.Int("width", 8, "model width")
		train     = flag.Int("train", 1200, "total training samples (pre-sharding)")
		test      = flag.Int("test", 300, "test samples (evaluator only)")
		lr        = flag.Float64("lr", 0.05, "platform-side learning rate")
		seed      = flag.Uint64("seed", 1, "shared experiment seed")
		sharding  = flag.String("sharding", "iid", "data split: iid, powerlaw, dirichlet")
		alpha     = flag.Float64("alpha", 1.2, "power-law/Dirichlet skew")
		prop      = flag.Bool("proportional", false, "proportional minibatch sizing (paper's imbalance fix)")
		batch     = flag.Int("totalbatch", 32, "total per-round batch budget across platforms")
		l1sync    = flag.Int("l1sync", 0, "L1 weight sync every N rounds (must match server)")
		evalEvery = flag.Int("evalevery", 10, "eval every N rounds (must match server)")
		evaluator = flag.Bool("evaluator", false, "this platform measures test accuracy")
		codec     = flag.String("codec", "raw", "activation codec: raw, f16, int8, topk-<frac> (must match server)")
		loadPath  = flag.String("load", "", "restore the L1 half from a weights-only checkpoint before training")
		savePath  = flag.String("save", "", "write the L1 half to a weights-only checkpoint after training")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for session snapshots (full resumable state)")
		ckptEvery = flag.Int("checkpoint-every", 0, "write a session snapshot every N rounds (requires -checkpoint-dir)")
		resumeDir = flag.String("resume", "", "resume the session from the snapshots in this directory")
		rejoinWin = flag.Duration("rejoin-window", 0, "redial and rejoin for this long after a connection drop (0 = off)")
		failover  = flag.String("failover-addrs", "", "comma-separated standby server addresses to also try when redialing (requires -rejoin-window)")
	)
	flag.Parse()

	cfg := experiment.Config{
		Arch:         experiment.Arch(*arch),
		Classes:      *classes,
		Width:        *width,
		TrainSamples: *train,
		TestSamples:  *test,
		Platforms:    *platforms,
		TotalBatch:   *batch,
		Proportional: *prop,
		Sharding:     experiment.Sharding(*sharding),
		Alpha:        *alpha,
		Seed:         *seed,
	}
	err := run(cfg, platformOpts{
		addr: *addr, id: *id, rounds: *rounds, lr: float32(*lr),
		l1sync: *l1sync, evalEvery: *evalEvery, evaluator: *evaluator,
		codec: *codec, loadPath: *loadPath, savePath: *savePath,
		ckptDir: *ckptDir, ckptEvery: *ckptEvery, resumeDir: *resumeDir,
		rejoinWindow: *rejoinWin, failoverAddrs: *failover,
	})
	if err != nil {
		if errors.Is(err, core.ErrStopped) {
			fmt.Printf("splitplatform %d: stopped gracefully: %v\n", *id, err)
			return
		}
		fmt.Fprintln(os.Stderr, "splitplatform:", err)
		os.Exit(1)
	}
}

type platformOpts struct {
	addr               string
	id, rounds         int
	lr                 float32
	l1sync, evalEvery  int
	evaluator          bool
	codec              string
	loadPath, savePath string
	ckptDir            string
	ckptEvery          int
	resumeDir          string
	rejoinWindow       time.Duration
	failoverAddrs      string
}

func run(cfg experiment.Config, o platformOpts) error {
	if o.id < 0 || o.id >= cfg.Platforms {
		return fmt.Errorf("platform id %d out of range [0,%d)", o.id, cfg.Platforms)
	}
	codec, err := compress.ByName(o.codec)
	if err != nil {
		return err
	}
	shards, test, batches, err := experiment.BuildData(cfg)
	if err != nil {
		return err
	}
	m, err := experiment.BuildModel(cfg)
	if err != nil {
		return err
	}
	front, _, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		return err
	}
	if o.loadPath != "" {
		if err := nn.LoadCheckpointFile(o.loadPath, front.Params(), nn.CollectState(front)); err != nil {
			return err
		}
		fmt.Printf("splitplatform %d: restored L1 from %s\n", o.id, o.loadPath)
	}
	startRound := 0
	var snap *core.Snapshot
	if o.resumeDir != "" {
		snap, err = core.LoadLatestSnapshot(o.resumeDir, core.RolePlatform, o.id)
		if err != nil {
			return err
		}
		startRound = snap.NextRound
		fmt.Printf("splitplatform %d: resuming at round %d from %s\n", o.id, startRound, o.resumeDir)
	}

	meter := &transport.Meter{}
	pc := core.PlatformConfig{
		ID:              o.id,
		Front:           front,
		Opt:             &nn.SGD{LR: o.lr},
		Loss:            nn.SoftmaxCrossEntropy{},
		Shard:           shards[o.id],
		Batch:           batches[o.id],
		Rounds:          o.rounds,
		StartRound:      startRound,
		ClipGrads:       5,
		L1SyncEvery:     o.l1sync,
		EvalEvery:       o.evalEvery,
		CheckpointEvery: o.ckptEvery,
		CheckpointDir:   o.ckptDir,
		Seed:            cfg.Seed + uint64(1000+o.id),
		Codec:           codec,
		Meter:           meter,
	}
	if o.evaluator {
		pc.EvalData = test
	}
	if o.failoverAddrs != "" && o.rejoinWindow <= 0 {
		return fmt.Errorf("-failover-addrs requires -rejoin-window")
	}
	if o.rejoinWindow > 0 {
		// Redial attempts rotate through the primary address and every
		// standby: after a leader crash the primary refuses, and the
		// next attempt reaches the promoted standby. Redial is called
		// from the single rejoin loop, so the counter needs no lock.
		addrs := []string{o.addr}
		if o.failoverAddrs != "" {
			for _, a := range strings.Split(o.failoverAddrs, ",") {
				addrs = append(addrs, strings.TrimSpace(a))
			}
		}
		attempt := 0
		pc.RejoinWindow = o.rejoinWindow
		pc.Redial = func() (transport.Conn, error) {
			target := addrs[attempt%len(addrs)]
			attempt++
			c, err := transport.Dial(target)
			if err != nil {
				return nil, err
			}
			return transport.Metered(c, meter), nil
		}
	}
	plat, err := core.NewPlatform(pc)
	if err != nil {
		return err
	}
	if snap != nil {
		if err := plat.RestoreSnapshot(snap); err != nil {
			return err
		}
	}

	conn, err := transport.Dial(o.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("splitplatform %d: %d local samples, batch %d, connected to %s\n",
		o.id, shards[o.id].Len(), batches[o.id], o.addr)

	// First SIGINT/SIGTERM: finish the round, write a final checkpoint,
	// close cleanly. Second signal: exit immediately.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Printf("splitplatform %d: signal received; stopping at the next round boundary (repeat to force quit)\n", o.id)
		plat.Stop()
		<-sigCh
		os.Exit(1)
	}()

	stats, err := plat.Run(transport.Metered(conn, meter))
	if err != nil {
		return err
	}
	fmt.Printf("splitplatform %d: %d rounds, final loss %.4f, training traffic %s\n",
		o.id, len(stats.Rounds), stats.FinalLoss(), metrics.FormatBytes(core.TrainingBytes(meter)))
	for _, ev := range stats.Evals {
		if ev.Accuracy >= 0 {
			fmt.Printf("splitplatform %d: round %d test accuracy %.1f%%\n", o.id, ev.Round, 100*ev.Accuracy)
		}
	}
	if o.savePath != "" {
		if err := nn.SaveCheckpointFile(o.savePath, front.Params(), nn.CollectState(front)); err != nil {
			return err
		}
		fmt.Printf("splitplatform %d: saved L1 to %s\n", o.id, o.savePath)
	}
	return nil
}
