package experiment

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"medsplit/internal/compress"
	"medsplit/internal/core"
	"medsplit/internal/dataset"
	"medsplit/internal/metrics"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/paramserver"
	"medsplit/internal/rng"
	"medsplit/internal/simnet"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// buildModels constructs count model instances concurrently. Each call
// to BuildModel seeds its own RNG from the config, so the result is
// deterministic and identical to the sequential loop it replaces; the
// fan-out just overlaps the He-initialization work (one full weight set
// per platform), which otherwise serializes the start of every
// multi-platform experiment.
func buildModels(cfg Config, count int) ([]*models.Model, error) {
	ms := make([]*models.Model, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for k := range ms {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ms[k], errs[k] = BuildModel(cfg)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// loadResumeSnapshots reads the server's and every platform's most
// advanced snapshot (scheduled checkpoint or abort/stop stash,
// whichever is newer — see core.LoadLatestSnapshot) from a previous
// run's checkpoint directory and validates that they all stopped at
// the same round boundary.
func loadResumeSnapshots(dir string, platforms int) (srv *core.Snapshot, plats []*core.Snapshot, err error) {
	srv, err = core.LoadLatestSnapshot(dir, core.RoleServer, 0)
	if err != nil {
		return nil, nil, err
	}
	plats = make([]*core.Snapshot, platforms)
	for k := range plats {
		plats[k], err = core.LoadLatestSnapshot(dir, core.RolePlatform, k)
		if err != nil {
			return nil, nil, err
		}
		if plats[k].NextRound != srv.NextRound {
			return nil, nil, fmt.Errorf("experiment: platform %d checkpointed at round %d, server at %d",
				k, plats[k].NextRound, srv.NextRound)
		}
	}
	return srv, plats, nil
}

// RunSplit trains the config with the paper's split-learning framework
// and returns the accuracy-vs-communication curve.
func RunSplit(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	shards, test, batches, err := BuildData(cfg)
	if err != nil {
		return nil, err
	}
	var srvSnap *core.Snapshot
	var platSnaps []*core.Snapshot
	startRound := 0
	if cfg.ResumeFrom != "" {
		srvSnap, platSnaps, err = loadResumeSnapshots(cfg.ResumeFrom, cfg.Platforms)
		if err != nil {
			return nil, err
		}
		startRound = srvSnap.NextRound
	}
	// One identically initialized model instance per platform (fronts)
	// plus one for the server (back) — the paper's "same weights in L1"
	// postulate.
	fronts := make([]*nn.Sequential, cfg.Platforms)
	var back *nn.Sequential
	var whole *models.Model
	built, err := buildModels(cfg, cfg.Platforms+1)
	if err != nil {
		return nil, err
	}
	for k, m := range built {
		cut := m.DefaultCut
		if cfg.Cut > 0 {
			cut = cfg.Cut
		}
		f, b, err := models.Split(m.Net, cut)
		if err != nil {
			return nil, err
		}
		if k == cfg.Platforms {
			back = b
			whole = m
		} else {
			fronts[k] = f
		}
	}

	codec := wire.Codec(wire.RawCodec{})
	if cfg.Codec != "" {
		var cerr error
		codec, cerr = compress.ByName(cfg.Codec)
		if cerr != nil {
			return nil, cerr
		}
	}
	// The simulated WAN (and the rejoin broker, when faults may drop
	// platforms) must exist before the server and platform configs: the
	// recovery wiring closes over both.
	wan, wanPairs, err := cfg.simNetwork()
	if err != nil {
		return nil, err
	}
	var broker *core.RejoinBroker
	if cfg.SimRejoin != "" || cfg.KillLeaderAt > 0 {
		broker = core.NewRejoinBroker()
		defer broker.Close()
	}
	scfg := core.ServerConfig{
		Back:            back,
		Opt:             &nn.SGD{LR: cfg.LR},
		Platforms:       cfg.Platforms,
		Rounds:          cfg.Rounds,
		StartRound:      startRound,
		Mode:            cfg.Mode,
		Staleness:       cfg.Staleness,
		ClipGrads:       5,
		L1SyncEvery:     cfg.L1SyncEvery,
		EvalEvery:       cfg.EvalEvery,
		CheckpointEvery: cfg.CheckpointEvery,
		CheckpointDir:   cfg.CheckpointDir,
		Codec:           codec,
	}
	if cfg.LabelSharing {
		scfg.LabelSharing = true
		scfg.Loss = newLoss()
	}
	if broker != nil && cfg.SimRejoin != "" {
		// Dropout recovery on the leader. The KillLeaderAt path keeps the
		// broker but no Recovery: a killed leader must die promptly so
		// the follower can take over, not sit out a rejoin window.
		policy := core.WaitForRejoin
		if cfg.SimRejoin == "proceed" {
			policy = core.ProceedWithout
		}
		scfg.Recovery = &core.RecoveryConfig{Policy: policy, Window: 30 * time.Second, Broker: broker}
	}
	var tier *replicaTier
	if cfg.Replicas > 0 {
		tier, err = newReplicaTier(cfg, codec)
		if err != nil {
			return nil, err
		}
		defer tier.close()
		scfg.Replication = &core.ReplicationConfig{Log: tier.leaderLog, Followers: tier.leaderEnds}
	}
	srv, err := core.NewServer(scfg)
	if err != nil {
		return nil, err
	}
	if srvSnap != nil {
		if err := srv.RestoreSnapshot(srvSnap); err != nil {
			return nil, err
		}
	}
	meters := make([]*transport.Meter, cfg.Platforms)
	platforms := make([]*core.Platform, cfg.Platforms)
	for k := 0; k < cfg.Platforms; k++ {
		meters[k] = &transport.Meter{}
		pc := core.PlatformConfig{
			ID:              k,
			Front:           fronts[k],
			Opt:             &nn.SGD{LR: cfg.LR},
			Loss:            newLoss(),
			Shard:           shards[k],
			Batch:           batches[k],
			Rounds:          cfg.Rounds,
			StartRound:      startRound,
			LabelSharing:    cfg.LabelSharing,
			ClipGrads:       5,
			L1SyncEvery:     cfg.L1SyncEvery,
			EvalEvery:       cfg.EvalEvery,
			CheckpointEvery: cfg.CheckpointEvery,
			CheckpointDir:   cfg.CheckpointDir,
			Seed:            cfg.Seed + uint64(1000+k),
			Codec:           codec,
			Meter:           meters[k],
		}
		if cfg.LabelSharing {
			pc.Loss = nil
		}
		if cfg.Augment && cfg.Arch != ArchMLP {
			pc.Augment = dataset.NewAugmenter(4, true, rng.New(cfg.Seed+uint64(7000+k)))
		}
		if k == 0 {
			pc.EvalData = test
		}
		if broker != nil {
			// Dropped platforms redial through the simulated network; the
			// fresh server end reaches the session via the broker, and the
			// platform end keeps the same meter so recovered traffic stays
			// accounted.
			meter := meters[k]
			pc.RejoinWindow = 30 * time.Second
			pc.Redial = func() (transport.Conn, error) {
				sEnd, pEnd, derr := wan.Redial(k)
				if derr != nil {
					return nil, derr
				}
				go broker.Offer(sEnd)
				return transport.Metered(pEnd, meter), nil
			}
		}
		p, err := core.NewPlatform(pc)
		if err != nil {
			return nil, err
		}
		if platSnaps != nil {
			if err := p.RestoreSnapshot(platSnaps[k]); err != nil {
				return nil, err
			}
		}
		platforms[k] = p
	}
	var stats []*core.PlatformStats
	serverConns, platformConns := connect(wanPairs, meters)
	if tier != nil {
		var surviving *nn.Sequential
		stats, surviving, err = tier.run(srv, platforms, serverConns, platformConns, broker)
		if surviving != nil {
			// A failover happened: the session's final back half lives in
			// the promoted follower, not the dead leader.
			back = surviving
		}
	} else {
		stats, err = core.RunConnected(srv, platforms, serverConns, platformConns)
	}
	if err != nil {
		return nil, err
	}

	res := &Result{
		Scheme:       "split (proposed)",
		Curve:        metrics.Curve{Label: "split"},
		ModelParams:  whole.ParamCount(),
		WeightDigest: weightDigest(fronts, back),
	}
	evalCount := len(stats[0].Evals)
	for i := 0; i < evalCount; i++ {
		var bytes int64
		for k := range stats {
			bytes += stats[k].Evals[i].TrainingBytes
		}
		pt := metrics.Round{
			Round:    stats[0].Evals[i].Round,
			Accuracy: stats[0].Evals[i].Accuracy,
			Bytes:    bytes,
		}
		// Stats index by executed round: resumed runs start at
		// startRound, so absolute round r lives at index r-startRound.
		if ri := pt.Round - startRound; ri >= 0 && ri < len(stats[0].Rounds) {
			pt.Loss = stats[0].Rounds[ri].Loss
		}
		res.Curve.Append(pt)
	}
	res.FinalAccuracy = res.Curve.Final().Accuracy
	res.TrainingBytes = res.Curve.Final().Bytes

	if wan != nil {
		res.SimElapsed = wan.Elapsed()
		annotateSimTime(&res.Curve, res.SimElapsed, cfg.Rounds-startRound)
	}
	return res, nil
}

// weightDigest folds every final parameter's raw float bits (fronts in
// platform order, then the back half, little-endian) through FNV-1a.
// Bit-identical training ⇒ equal digests; the scenario matrix tests
// rely on this to compare runs across transports, codecs and fault
// scripts without shipping full weight sets around.
func weightDigest(fronts []*nn.Sequential, back *nn.Sequential) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	fold := func(seq *nn.Sequential) {
		for _, prm := range seq.Params() {
			for _, v := range prm.W.Data() {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
				h.Write(buf[:])
			}
		}
	}
	for _, f := range fronts {
		fold(f)
	}
	fold(back)
	return h.Sum64()
}

// RunSyncSGD trains the config with the paper's baseline (Large-Scale
// Synchronous SGD).
func RunSyncSGD(cfg Config) (*Result, error) {
	return runParamExchange(cfg, paramserver.SyncSGD, "large-scale sync SGD", "sync-sgd")
}

// RunFedAvg trains the config with Federated Averaging (the related-work
// de facto standard).
func RunFedAvg(cfg Config) (*Result, error) {
	return runParamExchange(cfg, paramserver.FedAvg, "fedavg", "fedavg")
}

// runParamExchange trains the config with one of the parameter-exchange
// baselines: a global model on the server, one full replica per
// platform, and the scheme deciding what is pushed and how it is folded.
func runParamExchange(cfg Config, scheme *paramserver.Scheme, name, label string) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The round mode schedules split exchanges; a parameter-exchange
	// scheme has none, so a mode here would be silently ignored.
	if cfg.Mode != 0 || cfg.Staleness != 0 {
		return nil, fmt.Errorf("experiment: %s has no round mode (got %v, staleness %d)", name, cfg.Mode, cfg.Staleness)
	}
	shards, test, batches, err := BuildData(cfg)
	if err != nil {
		return nil, err
	}
	// One identically initialized replica per platform plus the server's
	// global model.
	built, err := buildModels(cfg, cfg.Platforms+1)
	if err != nil {
		return nil, err
	}
	globalM, replicas := built[cfg.Platforms], built[:cfg.Platforms]
	srv, err := paramserver.NewServer(paramserver.ServerConfig{
		Scheme:    scheme,
		Model:     globalM.Net,
		Opt:       &nn.SGD{LR: cfg.LR},
		Clients:   cfg.Platforms,
		Rounds:    cfg.Rounds,
		ClipGrads: 5,
		EvalEvery: cfg.EvalEvery,
		EvalData:  test,
	})
	if err != nil {
		return nil, err
	}
	meters := make([]*transport.Meter, cfg.Platforms)
	clients := make([]*paramserver.Client, cfg.Platforms)
	for k := range clients {
		meters[k] = &transport.Meter{}
		clients[k], err = paramserver.NewClient(paramserver.ClientConfig{
			Scheme:     scheme,
			ID:         k,
			Model:      replicas[k].Net,
			Opt:        &nn.SGD{LR: cfg.LR},
			Loss:       newLoss(),
			Shard:      shards[k],
			Batch:      batches[k],
			LocalSteps: cfg.LocalSteps,
			Rounds:     cfg.Rounds,
			EvalEvery:  cfg.EvalEvery,
			Seed:       cfg.Seed + uint64(1000+k),
			Meter:      meters[k],
		})
		if err != nil {
			return nil, err
		}
	}
	wan, wanPairs, err := cfg.simNetwork()
	if err != nil {
		return nil, err
	}
	serverConns, clientConns := connect(wanPairs, meters)
	serverStats, clientStats, err := paramserver.RunConnected(srv, clients, serverConns, clientConns)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Scheme:       name,
		Curve:        metrics.Curve{Label: label},
		ModelParams:  globalM.ParamCount(),
		WeightDigest: weightDigest(nil, globalM.Net),
	}
	// The handshake pinned rounds and eval cadence on every party, so
	// each client holds one loss per round and one byte snapshot per
	// evaluation.
	for i, ev := range serverStats.Evals {
		pt := metrics.Round{Round: ev.Round, Accuracy: ev.Accuracy, Loss: clientStats[0].Rounds[ev.Round].Loss}
		for _, cs := range clientStats {
			pt.Bytes += cs.Bytes[i].TrainingBytes
		}
		res.Curve.Append(pt)
	}
	res.FinalAccuracy = res.Curve.Final().Accuracy
	res.TrainingBytes = res.Curve.Final().Bytes

	if wan != nil {
		res.SimElapsed = wan.Elapsed()
		annotateSimTime(&res.Curve, res.SimElapsed, cfg.Rounds)
	}
	return res, nil
}

// simNetwork builds the simulated WAN every scheme runs over when the
// config names a Topology: one link per platform from its region, the
// seeded jitter, the scripted faults and the compute model. Without a
// Topology it returns a nil network, and the runners use pipes.
func (c Config) simNetwork() (*simnet.Network, []simnet.Pair, error) {
	if c.Topology == nil {
		return nil, nil, nil
	}
	faults := c.SimFaults
	if c.KillLeaderAt > 0 {
		// Script the leader's death: the server process dies while
		// sending platform 0's cut gradient at the kill round, every
		// link severs at once, and the first redial attempts fail
		// while the failover is still settling.
		faults = append(append([]simnet.Fault(nil), faults...), simnet.Fault{
			Platform:  0,
			Round:     c.KillLeaderAt,
			Type:      wire.MsgCutGrad,
			Dir:       simnet.DirDown,
			Kind:      simnet.FaultKillServer,
			FailDials: 2,
		})
	}
	return simnet.FromTopology(c.Topology, c.Regions, simnet.Options{
		Seed:   c.Seed + 0x51A47,
		Jitter: c.SimJitter,
		Faults: faults,
		Compute: simnet.Compute{
			Server:   c.SimComputeServer,
			Platform: c.SimCompute,
		},
	})
}

// connect returns each platform's server and platform connection ends,
// the platform end metered: the simulated WAN's pairs when there are
// any, in-process pipes otherwise.
func connect(pairs []simnet.Pair, meters []*transport.Meter) (serverConns, platformConns []transport.Conn) {
	serverConns = make([]transport.Conn, len(meters))
	platformConns = make([]transport.Conn, len(meters))
	for k, m := range meters {
		var s, p transport.Conn
		if pairs != nil {
			s, p = pairs[k].Server, pairs[k].Platform
		} else {
			s, p = transport.Pipe()
		}
		serverConns[k], platformConns[k] = s, transport.Metered(p, m)
	}
	return serverConns, platformConns
}

// annotateSimTime stamps cumulative simulated wall-clock onto curve
// points: the session's measured virtual time spread evenly over the
// rounds it executed.
func annotateSimTime(c *metrics.Curve, elapsed time.Duration, rounds int) {
	perRound := elapsed / time.Duration(rounds)
	for i := range c.Points {
		c.Points[i].SimTime = time.Duration(c.Points[i].Round+1) * perRound
	}
}
