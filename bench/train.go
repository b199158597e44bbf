package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"medsplit/internal/compress"
	"medsplit/internal/core"
	"medsplit/internal/dataset"
	"medsplit/internal/experiment"
	"medsplit/internal/geonet"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/simnet"
	"medsplit/internal/transport"
	"medsplit/internal/wal"
	"medsplit/internal/wire"
)

// Fixed session parameters shared by the training workloads (the values
// experiment.RunSplit defaults to).
const (
	trainLR        = 0.05
	trainClip      = 5
	trainSamples   = 800
	trainClasses   = 10
	trainWidth     = 8
	lossWindow     = 10
	simJitter      = 0.05
	simServerTime  = 2 * time.Millisecond
	simClinicBase  = 5 * time.Millisecond
	simStragglers  = 0.125
	seedTopoOffset = 0x51A47
)

// trainSession is one fully wired split-learning session, built from
// the program's public constructors and not yet started.
type trainSession struct {
	def    *trainDef
	rounds int
	traced bool

	srv       *core.Server
	platforms []*core.Platform
	srvConns  []transport.Conn
	platConns []transport.Conn
	fronts    []*nn.Sequential // unwrapped halves, for the digest
	back      *nn.Sequential
	meters    []*transport.Meter
	shard0    *dataset.Dataset // platform 0's shard, for the sampling probe
	wan       *simnet.Network
	compute   []time.Duration // per-platform virtual compute charge

	followers []*core.Follower
	replEnds  []transport.Conn // leader ends of the follower streams
	logs      []*wal.Log
	walDir    string

	epoch   time.Time
	clock   *roundClock
	vclock  [][]time.Duration // vclock[k][r]: platform k's virtual time at its round-r cut gradient
	warm    int               // rounds excluded as warm-up
	memWarm runtime.MemStats  // taken when round warm-1 completes (traced run)
	memEnd  runtime.MemStats

	srvParty   *party
	platParty  []*party
	layerWraps []*tracedLayer

	// Set-up timing.
	synthDur time.Duration // experiment.BuildData
	modelDur time.Duration // BuildModel + Split for every party
	buildDur time.Duration // whole construction, connect included
}

// buildTrain wires a session of the given length. o.tmp hosts the WAL
// directories of the replicated workload; they are removed by close.
func buildTrain(w *workload, o runOpts, rounds int, traced bool) (s *trainSession, err error) {
	def := w.Train
	seed, tmp := o.seed, o.tmp
	s = &trainSession{def: def, rounds: rounds, traced: traced, epoch: time.Now()}
	s.warm = int(math.Ceil(warmupShare * float64(rounds)))
	if s.warm < 1 {
		s.warm = 1
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	start := time.Now()

	cfg := experiment.Config{
		Arch:         def.Arch,
		Classes:      trainClasses,
		Width:        trainWidth,
		TrainSamples: scaled(trainSamples, o.scale, 16*def.Platforms),
		TestSamples:  10,
		Noise:        0.35,
		Platforms:    def.Platforms,
		TotalBatch:   def.Platforms * def.Rows,
		Sharding:     experiment.ShardingIID,
		Seed:         seed,
	}
	t0 := time.Now()
	shards, _, batches, err := experiment.BuildData(cfg)
	if err != nil {
		return nil, err
	}
	s.synthDur = time.Since(t0)
	s.shard0 = shards[0]

	// One identically initialised model per party, as RunSplit does:
	// platform k keeps its front, the server keeps the last one's back.
	t0 = time.Now()
	s.fronts = make([]*nn.Sequential, def.Platforms)
	for k := 0; k <= def.Platforms; k++ {
		m, err := experiment.BuildModel(cfg)
		if err != nil {
			return nil, err
		}
		f, b, err := models.Split(m.Net, m.DefaultCut)
		if err != nil {
			return nil, err
		}
		if k == def.Platforms {
			s.back = b
		} else {
			s.fronts[k] = f
		}
	}
	s.modelDur = time.Since(t0)

	var codec wire.Codec = wire.RawCodec{}
	if def.Codec != "raw" {
		if codec, err = compress.ByName(def.Codec); err != nil {
			return nil, err
		}
	}

	if traced {
		s.srvParty = newParty("server", s.epoch)
		s.platParty = make([]*party, def.Platforms)
		for k := range s.platParty {
			s.platParty[k] = newParty(fmt.Sprintf("platform-%d", k), s.epoch)
		}
	}

	if err := s.connect(seed); err != nil {
		return nil, err
	}

	scfg := core.ServerConfig{
		Back:      s.back,
		Opt:       &nn.SGD{LR: trainLR},
		Platforms: def.Platforms,
		Rounds:    rounds,
		Mode:      core.RoundModeSequential,
		ClipGrads: trainClip,
		Codec:     codec,
	}
	if def.Staleness > 0 {
		scfg.Mode = core.RoundModeBoundedStaleness
		scfg.Staleness = def.Staleness
	}
	if def.Replicate {
		if err := s.openReplicas(tmp); err != nil {
			return nil, err
		}
		scfg.Replication = &core.ReplicationConfig{Log: s.logs[0], Followers: s.replEnds}
	}
	if traced {
		var wraps []*tracedLayer
		scfg.Back, wraps, err = traceHalf(s.back, s.srvParty, spanBackFwd, spanBackBwd)
		if err != nil {
			return nil, err
		}
		s.layerWraps = append(s.layerWraps, wraps...)
		scfg.Opt = traceOptimizer(scfg.Opt, s.srvParty)
		scfg.Codec = traceCodec(codec, s.srvParty)
		scfg.Compute = &tracedGate{p: s.srvParty}
	}
	if s.srv, err = core.NewServer(scfg); err != nil {
		return nil, err
	}

	s.platforms = make([]*core.Platform, def.Platforms)
	for k := range s.platforms {
		pc := core.PlatformConfig{
			ID:        k,
			Front:     s.fronts[k],
			Opt:       &nn.SGD{LR: trainLR},
			Loss:      &nn.ReusingSoftmaxCrossEntropy{},
			Shard:     shards[k],
			Batch:     batches[k],
			Rounds:    rounds,
			ClipGrads: trainClip,
			Seed:      seed + uint64(1000+k),
			Codec:     codec,
			Meter:     s.meters[k],
		}
		if traced {
			p := s.platParty[k]
			var wraps []*tracedLayer
			pc.Front, wraps, err = traceHalf(s.fronts[k], p, spanFrontFwd, spanFrontBwd)
			if err != nil {
				return nil, err
			}
			s.layerWraps = append(s.layerWraps, wraps...)
			pc.Opt = traceOptimizer(pc.Opt, p)
			pc.Loss = &tracedLoss{inner: pc.Loss, p: p}
			pc.Codec = traceCodec(codec, p)
		}
		if s.platforms[k], err = core.NewPlatform(pc); err != nil {
			return nil, err
		}
	}
	s.buildDur = time.Since(start)
	return s, nil
}

// connect opens the workload's links and wraps their ends: meters on
// the platform ends (the program's own byte accounting), the round
// clock on the server end that carries a round's last message, and,
// in the traced run, a span recorder on every end.
func (s *trainSession) connect(seed uint64) error {
	def := s.def
	n := def.Platforms
	s.srvConns = make([]transport.Conn, n)
	s.platConns = make([]transport.Conn, n)
	s.meters = make([]*transport.Meter, n)
	switch def.Link {
	case "tcp":
		ln, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		for k := 0; k < n; k++ {
			// Dial then accept, one link at a time, so slot k on both
			// sides is the same connection.
			if s.platConns[k], err = transport.Dial(ln.Addr()); err != nil {
				return err
			}
			if s.srvConns[k], err = ln.Accept(); err != nil {
				return err
			}
		}
	case "pipe":
		for k := 0; k < n; k++ {
			s.srvConns[k], s.platConns[k] = transport.Pipe()
		}
	case "simnet":
		topo, regions := geonet.SyntheticClinics(n, clinicSeed)
		s.compute = geonet.SyntheticClinicCompute(n, clinicSeed, simClinicBase, simStragglers)
		wan, pairs, err := simnet.FromTopology(topo, regions, simnet.Options{
			Seed:    seed + seedTopoOffset,
			Jitter:  simJitter,
			Compute: simnet.Compute{Server: simServerTime, Platform: s.compute},
		})
		if err != nil {
			return err
		}
		s.wan = wan
		s.vclock = make([][]time.Duration, n)
		for k, p := range pairs {
			s.srvConns[k], s.platConns[k] = p.Server, p.Platform
		}
	default:
		return fmt.Errorf("bench: unknown link %q", def.Link)
	}

	s.clock = &roundClock{epoch: s.epoch}
	for k := 0; k < n; k++ {
		s.meters[k] = &transport.Meter{}
		srvTap := &tapConn{inner: s.srvConns[k], p: s.srvParty}
		platTap := &tapConn{inner: transport.Metered(s.platConns[k], s.meters[k])}
		if s.traced {
			platTap.p = s.platParty[k]
		}
		if k == 0 {
			srvTap.afterRecv = s.clock.activationsSeen
		}
		if k == n-1 {
			srvTap.afterSend = s.roundDone
		}
		if s.wan != nil {
			k := k
			s.vclock[k] = make([]time.Duration, 0, s.rounds)
			platTap.afterRecv = func(m *wire.Message) {
				if m.Type == wire.MsgCutGrad {
					s.vclock[k] = append(s.vclock[k], s.wan.PlatformClock(k))
				}
			}
		}
		needSrvTap := s.traced || srvTap.afterRecv != nil || srvTap.afterSend != nil
		if needSrvTap {
			s.srvConns[k] = srvTap
		}
		if s.traced || platTap.afterRecv != nil {
			s.platConns[k] = platTap
		} else {
			s.platConns[k] = platTap.inner
		}
	}
	return nil
}

// roundDone runs on the server goroutine after each send to the last
// platform; a cut gradient there ends the round.
func (s *trainSession) roundDone(m *wire.Message) {
	s.clock.cutGradSent(m)
	if s.traced && m.Type == wire.MsgCutGrad && len(s.clock.stamps) == s.warm {
		runtime.ReadMemStats(&s.memWarm)
	}
}

// walOptions is the zero wal.Options, which experiment's replica tier
// also runs with. Whatever the package comment says about a default of
// 1, a zero SyncEvery never fsyncs: appends are write calls into the
// page cache. That is deliberate here. With fsync on every append the
// round is set by the sandbox's virtual disk and ops_per_s spreads by
// ±20% between runs of one commit; the fsync price is reported by the
// wal.append_us / wal.append_nosync_us probe pair instead.
var walOptions = wal.Options{}

// openReplicas opens the leader and follower WALs and builds one warm
// follower on a rendezvous pipe, as experiment's replica tier does.
func (s *trainSession) openReplicas(tmp string) error {
	dir, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return err
	}
	s.walDir = dir
	leader, err := wal.Open(filepath.Join(dir, "leader"), walOptions)
	if err != nil {
		return err
	}
	s.logs = append(s.logs, leader)
	flog, err := wal.Open(filepath.Join(dir, "follower-0"), walOptions)
	if err != nil {
		return err
	}
	s.logs = append(s.logs, flog)
	leaderEnd, followerEnd := transport.Pipe()
	f, err := core.NewFollower(core.FollowerConfig{Platforms: s.def.Platforms, Conn: followerEnd, Log: flog})
	if err != nil {
		return err
	}
	s.followers = append(s.followers, f)
	if s.traced {
		leaderEnd = &tapConn{inner: leaderEnd, p: s.srvParty, sendName: spanReplSend}
	}
	s.replEnds = append(s.replEnds, leaderEnd)
	return nil
}

// close releases what a session holds outside the heap. Idempotent.
func (s *trainSession) close() {
	for _, c := range s.srvConns {
		if c != nil {
			c.Close()
		}
	}
	for _, c := range s.platConns {
		if c != nil {
			c.Close()
		}
	}
	for _, c := range s.replEnds {
		c.Close()
	}
	for _, l := range s.logs {
		l.Close()
	}
	s.logs = nil
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
		s.walDir = ""
	}
}

// trainOutcome is what one finished session measured.
type trainOutcome struct {
	setup      time.Duration   // construction plus session start to first activations
	stamps     []time.Duration // wall-clock round completions since session start
	vstamps    []time.Duration // virtual round completions (simnet only)
	losses     []float64       // mean platform loss per round
	digest     uint64
	wireBytes  int64 // training-exchange bytes, both directions, all platforms
	simElapsed time.Duration
	linkSimMs  float64
	err        error // first failed check, nil when the session is sound
}

// run drives the session to completion and closes it.
func (s *trainSession) run() *trainOutcome {
	defer s.close()
	out := &trainOutcome{}

	var fwg sync.WaitGroup
	ferrs := make([]error, len(s.followers))
	for i, f := range s.followers {
		fwg.Add(1)
		go func(i int, f *core.Follower) {
			defer fwg.Done()
			ferrs[i] = f.Run()
		}(i, f)
	}
	started := time.Since(s.epoch)
	stats, err := core.RunConnected(s.srv, s.platforms, s.srvConns, s.platConns)
	// The leader is done: end the follower streams so the followers see
	// the close and return.
	for _, c := range s.replEnds {
		c.Close()
	}
	fwg.Wait()
	if s.traced {
		runtime.ReadMemStats(&s.memEnd)
	}
	if err = errors.Join(append([]error{err}, ferrs...)...); err != nil {
		out.err = fmt.Errorf("a party failed: %w", err)
		return out
	}

	out.setup = s.buildDur + (s.clock.first - started)
	// Stamps relative to session start, with the start itself as stamp
	// zero so round 0 has a duration too.
	out.stamps = make([]time.Duration, 0, len(s.clock.stamps)+1)
	out.stamps = append(out.stamps, 0)
	for _, t := range s.clock.stamps {
		out.stamps = append(out.stamps, t-started)
	}
	if len(s.clock.stamps) != s.rounds {
		out.err = fmt.Errorf("saw %d round completions, want %d", len(s.clock.stamps), s.rounds)
		return out
	}

	out.losses = make([]float64, s.rounds)
	for k, st := range stats {
		if len(st.Rounds) != s.rounds {
			out.err = fmt.Errorf("platform %d trained %d rounds, want %d", k, len(st.Rounds), s.rounds)
			return out
		}
		for r, rs := range st.Rounds {
			if math.IsNaN(rs.Loss) || math.IsInf(rs.Loss, 0) {
				out.err = fmt.Errorf("platform %d round %d: loss %v", k, r, rs.Loss)
				return out
			}
			out.losses[r] += rs.Loss / float64(len(stats))
		}
	}
	for _, m := range s.meters {
		out.wireBytes += core.TrainingBytes(m)
	}
	out.digest = weightDigest(s.fronts, s.back)

	if s.wan != nil {
		out.simElapsed = s.wan.Elapsed()
		out.vstamps = make([]time.Duration, s.rounds+1)
		for k := range s.vclock {
			if len(s.vclock[k]) != s.rounds {
				out.err = fmt.Errorf("platform %d saw %d cut gradients, want %d", k, len(s.vclock[k]), s.rounds)
				return out
			}
			for r, t := range s.vclock[k] {
				if t > out.vstamps[r+1] {
					out.vstamps[r+1] = t
				}
			}
			idle := s.wan.PlatformClock(k) - time.Duration(s.rounds)*s.compute[k]
			out.linkSimMs += float64(idle) / 1e6 / float64(s.rounds) / float64(len(s.vclock))
		}
	}
	return out
}

// weightDigest folds every parameter's raw float bits (fronts in
// platform order, then the back half) through FNV-1a, the same digest
// experiment.Result.WeightDigest carries.
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

// steadyStamps drops the warm-up rounds: the returned slice starts at
// the boundary that ends the warm-up.
func steadyStamps(stamps []time.Duration, warm int) []time.Duration {
	if warm >= len(stamps)-1 {
		return nil
	}
	return stamps[warm:]
}
