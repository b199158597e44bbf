// Command splitserver runs the central server of the split-learning
// framework over TCP. It owns the model's layers above the cut
// (L2 … Lk in the paper); platforms connect with cmd/splitplatform.
//
// Server and platforms must agree on -arch, -classes, -width, -seed and
// -rounds: both sides derive the same initial weights from the shared
// seed, and the handshake rejects mismatched round/eval schedules.
//
// Example (one server, two platforms, three shells):
//
//	splitserver   -addr :7700 -platforms 2 -rounds 40
//	splitplatform -addr 127.0.0.1:7700 -id 0 -platforms 2 -rounds 40 -evaluator
//	splitplatform -addr 127.0.0.1:7700 -id 1 -platforms 2 -rounds 40
//
// Scheduling sits on a consistency spectrum (README "Consistency
// spectrum"). The default -mode sequential and -mode concat finish
// every platform's exchange for a round before the next round starts;
// -stale K relaxes sequential's lockstep (each exchange may miss at
// most K rounds of the other platforms' updates), and -stale K with
// -l1sync P and K >= P is the splitfed preset: platforms run
// local-parallel between averaging boundaries. No schedule needs a
// platform-side flag: the server's processing order alone decides the
// consistency model. A -standby only joins lockstep sequential
// sessions (-stale 0), because promotion always resumes that way.
//
// Long runs survive interruptions: -checkpoint-dir/-checkpoint-every
// write session snapshots at round boundaries, SIGINT/SIGTERM triggers
// a final checkpoint and a clean exit, and -resume continues from a
// snapshot directory. With -rejoin-window the server also keeps
// accepting connections so a platform that lost its link can rejoin
// mid-session instead of killing the job.
//
// The aggregation tier itself can be replicated. The leader appends
// every training step to a write-ahead log and streams it to warm
// standbys before acking, so a leader crash loses nothing:
//
//	splitserver -addr :7800 -standby -wal-dir wal-standby -platforms 2 -rounds 40
//	splitserver -addr :7700 -wal-dir wal-leader -replicate 127.0.0.1:7800 -platforms 2 -rounds 40
//	splitplatform -addr 127.0.0.1:7700 -failover-addrs 127.0.0.1:7800 -rejoin-window 1m ...
//
// If the leader dies, the standby replays its durable log tail,
// promotes into a serving leader at the exact step the leader
// recorded last, and adopts the platforms as they redial — training
// continues bit-identically to an undisturbed run.
//
// With -serve the same binary multiplexes split *inference* instead of
// training: each tenant's back half is served behind a dynamic batcher
// and a shared compute gate, and clients (cmd/splitinfer) run the front
// half locally and ship cut activations:
//
//	splitserver -serve -addr :7900 -tenants "alpha:1,beta:2:ckpt/beta"
//	splitinfer  -addr 127.0.0.1:7900 -tenant alpha -seed 1 -requests 100
//
// A tenant spec's optional fourth field picks the inference precision
// ("alpha:1::int8" serves tenant alpha through the int8 quantized
// path; f32 is the default and bit-identical to prior releases).
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
	"medsplit/internal/wal"
	"medsplit/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":7700", "listen address")
		platforms  = flag.Int("platforms", 2, "number of platforms to serve")
		rounds     = flag.Int("rounds", 40, "training rounds")
		arch       = flag.String("arch", "vgg-lite", "model: mlp, vgg-lite, resnet-lite")
		classes    = flag.Int("classes", 10, "label count")
		width      = flag.Int("width", 8, "model width")
		lr         = flag.Float64("lr", 0.05, "server-side learning rate")
		seed       = flag.Uint64("seed", 1, "shared model seed")
		mode       = flag.String("mode", "sequential", "round mode: sequential or concat")
		stale      = flag.Int("stale", 0, "sequential's staleness cap K: an exchange may miss at most K rounds of the other platforms' updates (0 = lockstep; K >= -l1sync is the splitfed preset)")
		l1sync     = flag.Int("l1sync", 0, "average platform L1 weights every N rounds (0 = off)")
		evalEvery  = flag.Int("evalevery", 10, "evaluation phase every N rounds (0 = off)")
		codec      = flag.String("codec", "raw", "activation codec: raw, f16, int8, topk-<frac>")
		loadPath   = flag.String("load", "", "start from the server half's weights in a -save snapshot file (fresh optimizer, round 0)")
		savePath   = flag.String("save", "", "write the server's session snapshot to this file after training")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for session snapshots (full resumable state)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "write a session snapshot every N rounds (requires -checkpoint-dir)")
		resumeDir  = flag.String("resume", "", "resume the session from the snapshots in this directory")
		rejoinWin  = flag.Duration("rejoin-window", 0, "accept platform rejoins for this long after a dropout (0 = off)")
		rejoinWait = flag.Bool("rejoin-wait", true, "block the round for a rejoin (false: proceed without the platform)")
		walDir     = flag.String("wal-dir", "", "write-ahead log directory (required with -replicate and -standby)")
		walSync    = flag.Int("wal-sync", 1, "fsync the WAL every N appends (0 = OS-buffered)")
		replicate  = flag.String("replicate", "", "comma-separated standby addresses to stream replication to (requires -wal-dir)")
		standby    = flag.Bool("standby", false, "run as a warm standby: apply a leader's replication stream, promote if it dies")

		serveMode    = flag.Bool("serve", false, "run as a multi-tenant split-inference server instead of training (see -tenants)")
		tenants      = flag.String("tenants", "", "with -serve: comma-separated name:seed[:checkpoint-dir[:precision]] tenant specs (precision: f32, f16 or int8)")
		batchMax     = flag.Int("batch-max", 8, "with -serve: flush a tenant's batch at this many accumulated rows")
		flushEvery   = flag.Duration("flush-every", 2*time.Millisecond, "with -serve: while every compute slot is busy, hold a partial batch at most this long (a request that finds a slot free runs at once)")
		computeSlots = flag.Int("compute-slots", 1, "with -serve: concurrent back-half forwards across all tenants")
		queueCap     = flag.Int("queue-cap", 0, "with -serve: per-tenant admission queue depth before shedding (0 = default)")
		ioTimeout    = flag.Duration("io-timeout", 0, "with -serve: per-call read/write deadline on client connections (0 = none)")
	)
	flag.Parse()

	if *serveMode {
		if err := runServe(serveOpts{
			addr: *addr, tenants: *tenants, arch: *arch, classes: *classes, width: *width,
			batchMax: *batchMax, flushEvery: *flushEvery, computeSlots: *computeSlots,
			queueCap: *queueCap, ioTimeout: *ioTimeout,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "splitserver:", err)
			os.Exit(1)
		}
		return
	}

	opts := serverOpts{
		addr: *addr, platforms: *platforms, rounds: *rounds, arch: *arch,
		classes: *classes, width: *width, lr: float32(*lr), seed: *seed,
		mode: *mode, stale: *stale,
		l1sync: *l1sync, evalEvery: *evalEvery,
		codec: *codec, loadPath: *loadPath, savePath: *savePath,
		ckptDir: *ckptDir, ckptEvery: *ckptEvery, resumeDir: *resumeDir,
		rejoinWindow: *rejoinWin, rejoinWait: *rejoinWait,
		walDir: *walDir, walSync: *walSync, replicate: *replicate,
	}
	var err error
	if *standby {
		err = runStandby(opts)
	} else {
		err = run(opts)
	}
	if err != nil {
		if errors.Is(err, core.ErrStopped) {
			fmt.Println("splitserver: stopped gracefully:", err)
			return
		}
		fmt.Fprintln(os.Stderr, "splitserver:", err)
		os.Exit(1)
	}
}

type serverOpts struct {
	addr               string
	platforms, rounds  int
	arch               string
	classes, width     int
	lr                 float32
	seed               uint64
	mode               string
	stale              int
	l1sync, evalEvery  int
	codec              string
	loadPath, savePath string
	ckptDir            string
	ckptEvery          int
	resumeDir          string
	rejoinWindow       time.Duration
	rejoinWait         bool
	walDir             string
	walSync            int
	replicate          string
}

// buildBack constructs the model's server half for the configured
// architecture and seed (identical across leader and standbys).
func buildBack(o serverOpts) (*models.Model, *nn.Sequential, error) {
	m, err := experiment.BuildModel(experiment.Config{
		Arch: experiment.Arch(o.arch), Classes: o.classes, Width: o.width, Seed: o.seed,
	})
	if err != nil {
		return nil, nil, err
	}
	_, back, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		return nil, nil, err
	}
	return m, back, nil
}

// serverConfig builds the leader's core configuration from the flags:
// everything except what needs the network, the WAL or a resume
// snapshot (recovery, replication, the start round). Whether the round
// mode accepts the other flags is core.NewServer's decision.
func serverConfig(o serverOpts) (core.ServerConfig, *models.Model, error) {
	mode, err := core.ParseRoundMode(o.mode)
	if err != nil {
		return core.ServerConfig{}, nil, err
	}
	m, back, err := buildBack(o)
	if err != nil {
		return core.ServerConfig{}, nil, err
	}
	codec, err := compress.ByName(o.codec)
	if err != nil {
		return core.ServerConfig{}, nil, err
	}
	return core.ServerConfig{
		Back:            back,
		Opt:             &nn.SGD{LR: o.lr},
		Platforms:       o.platforms,
		Rounds:          o.rounds,
		Mode:            mode,
		Staleness:       o.stale,
		ClipGrads:       5,
		L1SyncEvery:     o.l1sync,
		EvalEvery:       o.evalEvery,
		CheckpointEvery: o.ckptEvery,
		CheckpointDir:   o.ckptDir,
		Codec:           codec,
	}, m, nil
}

// standbyMode accepts only the sessions a promoted standby can finish
// faithfully: promotion always builds a lockstep sequential server, so
// any schedule that pauses or fuses exchanges would change silently at
// failover.
func standbyMode(o serverOpts) error {
	mode, err := core.ParseRoundMode(o.mode)
	if err != nil {
		return err
	}
	if mode == core.RoundModeSequential && o.stale == 0 {
		return nil
	}
	return fmt.Errorf("-standby joins only lockstep sequential sessions (-mode sequential -stale 0), because promotion resumes that way; got -mode %v -stale %d", mode, o.stale)
}

func run(o serverOpts) error {
	scfg, m, err := serverConfig(o)
	if err != nil {
		return err
	}
	back := scfg.Back
	if o.loadPath != "" {
		loaded, err := core.LoadSnapshotFile(o.loadPath)
		if err != nil {
			return err
		}
		if err := core.RestoreModel(back, loaded, core.RoleServer); err != nil {
			return err
		}
		fmt.Printf("splitserver: restored server half from %s\n", o.loadPath)
	}
	var snap *core.Snapshot
	if o.resumeDir != "" {
		snap, err = core.LoadLatestSnapshot(o.resumeDir, core.RoleServer, 0)
		if err != nil {
			return err
		}
		scfg.StartRound = snap.NextRound
		fmt.Printf("splitserver: resuming at round %d from %s\n", scfg.StartRound, o.resumeDir)
	}
	var broker *core.RejoinBroker
	if o.rejoinWindow > 0 {
		broker = core.NewRejoinBroker()
		defer broker.Close()
		policy := core.WaitForRejoin
		if !o.rejoinWait {
			policy = core.ProceedWithout
		}
		scfg.Recovery = &core.RecoveryConfig{Policy: policy, Window: o.rejoinWindow, Broker: broker}
	}
	if o.replicate != "" {
		if o.walDir == "" {
			return fmt.Errorf("-replicate requires -wal-dir")
		}
		log, werr := wal.Open(o.walDir, wal.Options{SyncEvery: o.walSync})
		if werr != nil {
			return werr
		}
		defer log.Close()
		var followers []transport.Conn
		for _, faddr := range strings.Split(o.replicate, ",") {
			fc, derr := transport.Dial(strings.TrimSpace(faddr))
			if derr != nil {
				return fmt.Errorf("dialing standby %s: %w", faddr, derr)
			}
			defer fc.Close()
			followers = append(followers, fc)
			fmt.Printf("splitserver: replicating to standby %s\n", faddr)
		}
		scfg.Replication = &core.ReplicationConfig{Log: log, Followers: followers}
	}
	srv, err := core.NewServer(scfg)
	if err != nil {
		return err
	}
	if snap != nil {
		if err := srv.RestoreSnapshot(snap); err != nil {
			return err
		}
	}

	l, err := transport.Listen(o.addr)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Printf("splitserver: %s model, %d params server-side, listening on %s for %d platforms\n",
		m.Name, nn.ParamCount(back.Params()), l.Addr(), o.platforms)

	conns, meter, err := acceptPlatforms(l, o.platforms)
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	// Keep accepting after the initial handshakes when rejoins are
	// allowed: a reconnecting platform opens a fresh connection whose
	// first frame is a MsgRejoin; the broker routes it to the session.
	// Closing the listener (deferred above) unblocks and ends the loop.
	if broker != nil {
		go func() {
			for {
				raw, err := l.Accept()
				if err != nil {
					return
				}
				go func(c transport.Conn) {
					if err := broker.Offer(transport.Metered(c, meter)); err != nil {
						fmt.Fprintln(os.Stderr, "splitserver: rejected rejoin:", err)
					}
				}(raw)
			}
		}()
	}

	// First SIGINT/SIGTERM: finish the round, write a final checkpoint,
	// close cleanly. Second signal: exit immediately.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Println("splitserver: signal received; stopping at the next round boundary (repeat to force quit)")
		srv.Stop()
		<-sigCh
		os.Exit(1)
	}()

	if err := srv.Serve(conns); err != nil {
		return err
	}
	fmt.Printf("splitserver: training complete after %d rounds\n", o.rounds)
	fmt.Printf("splitserver: training traffic %s (all platforms, both directions)\n",
		metrics.FormatBytes(core.TrainingBytes(meter)))
	if o.savePath != "" {
		if err := core.SaveSnapshotFile(o.savePath, srv.Snapshot(o.rounds)); err != nil {
			return err
		}
		fmt.Printf("splitserver: saved server half to %s\n", o.savePath)
	}
	return nil
}

// runStandby runs the warm-standby side of the replication tier: it
// accepts the leader's replication stream on -addr, persists every
// record to its own WAL before applying it, and — when the stream ends
// before the session did — promotes into a serving leader, adopting the
// platforms as they redial to this address (splitplatform
// -failover-addrs). Promotion resumes at exactly the step the leader
// recorded last, so training finishes bit-identically.
func runStandby(o serverOpts) error {
	if o.walDir == "" {
		return fmt.Errorf("-standby requires -wal-dir")
	}
	if err := standbyMode(o); err != nil {
		return err
	}
	scfg, _, err := serverConfig(o)
	if err != nil {
		return err
	}
	log, err := wal.Open(o.walDir, wal.Options{SyncEvery: o.walSync})
	if err != nil {
		return err
	}
	defer log.Close()
	l, err := transport.Listen(o.addr)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Printf("splitserver: standby on %s awaiting the leader's replication stream\n", l.Addr())
	stream, err := l.Accept()
	if err != nil {
		return err
	}
	defer stream.Close()
	f, err := core.NewFollower(core.FollowerConfig{Platforms: o.platforms, Conn: stream, Log: log})
	if err != nil {
		return err
	}
	// Platforms that lose the leader redial here; the broker parks
	// their connections for the promotion handshake. Closing the
	// listener (deferred above) ends the loop.
	broker := core.NewRejoinBroker()
	defer broker.Close()
	meter := &transport.Meter{}
	go func() {
		for {
			c, aerr := l.Accept()
			if aerr != nil {
				return
			}
			go func(c transport.Conn) {
				if oerr := broker.Offer(transport.Metered(c, meter)); oerr != nil {
					fmt.Fprintln(os.Stderr, "splitserver: standby rejected rejoin:", oerr)
				}
			}(c)
		}
	}()
	if err := f.Run(); err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	win := o.rejoinWindow
	if win <= 0 {
		win = time.Minute
	}
	fmt.Printf("splitserver: replication stream ended at watermark %d; promoting (waiting up to %v for platforms)\n",
		f.Watermark(), win)
	promoted, conns, err := f.Promote(core.PromoteConfig{Server: scfg, Broker: broker, Window: win})
	if err != nil {
		return fmt.Errorf("standby: promotion failed (if the leader finished cleanly there was nothing to take over): %w", err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	fmt.Println("splitserver: promoted; finishing the session")
	if err := promoted.Serve(conns); err != nil {
		return err
	}
	fmt.Printf("splitserver: training complete after %d rounds\n", o.rounds)
	fmt.Printf("splitserver: post-failover traffic %s (all platforms, both directions)\n",
		metrics.FormatBytes(core.TrainingBytes(meter)))
	if o.savePath != "" {
		if err := core.SaveSnapshotFile(o.savePath, promoted.Snapshot(o.rounds)); err != nil {
			return err
		}
		fmt.Printf("splitserver: saved server half to %s\n", o.savePath)
	}
	return nil
}

// acceptPlatforms accepts the expected number of connections, reads each
// one's Hello to learn its platform id, and returns the connections in
// id order (with the Hellos pushed back for the protocol handshake).
// All traffic is counted on the returned meter.
func acceptPlatforms(l transport.Listener, platforms int) ([]transport.Conn, *transport.Meter, error) {
	meter := &transport.Meter{}
	conns := make([]transport.Conn, platforms)
	for accepted := 0; accepted < platforms; accepted++ {
		raw, err := l.Accept()
		if err != nil {
			return nil, nil, err
		}
		c := transport.Metered(raw, meter)
		hello, err := c.Recv()
		if err != nil {
			return nil, nil, fmt.Errorf("reading hello: %w", err)
		}
		if hello.Type != wire.MsgHello {
			return nil, nil, fmt.Errorf("first message was %s, want hello", hello.Type)
		}
		id := int(hello.Platform)
		if id < 0 || id >= platforms {
			return nil, nil, fmt.Errorf("platform id %d out of range [0,%d)", id, platforms)
		}
		if conns[id] != nil {
			return nil, nil, fmt.Errorf("platform %d connected twice", id)
		}
		conns[id] = transport.Pushback(c, hello)
		fmt.Printf("splitserver: platform %d connected (%d/%d)\n", id, accepted+1, platforms)
	}
	return conns, meter, nil
}
