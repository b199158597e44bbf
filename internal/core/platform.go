package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// PlatformConfig configures one medical platform (a hospital), which
// owns the raw local data and the network's first hidden layer L1.
type PlatformConfig struct {
	// ID is the platform index, matching its connection slot on the
	// server.
	ID int
	// Front is the platform-side half of the model (L1, from
	// models.Split).
	Front *nn.Sequential
	// Opt updates Front's parameters.
	Opt nn.Optimizer
	// Loss computes the task loss from logits and local labels. Unused
	// (and may be nil) in label-sharing mode, where the server computes
	// the loss.
	Loss nn.Loss
	// Shard is the platform's local dataset. It never leaves the
	// platform.
	Shard *dataset.Dataset
	// Augment, when non-nil, applies local data augmentation (random
	// crop/flip) to each training minibatch before the L1 forward pass.
	// Augmentation is platform-local, so it is privacy-neutral.
	Augment *dataset.Augmenter
	// Batch is the platform's minibatch size s_k. Use
	// dataset.ProportionalBatches to apply the paper's imbalance
	// mitigation.
	Batch int
	// Rounds is the number of training rounds (must match the server
	// and all other platforms; validated at handshake).
	Rounds int
	// StartRound is the first round to execute: 0 for a fresh run, the
	// checkpoint's NextRound when resuming. Must match the server's.
	StartRound int
	// LabelSharing enables the 2-message ablation: labels accompany the
	// activations and the server computes the loss.
	LabelSharing bool
	// ClipGrads, when positive, clamps L1 gradients before each step.
	ClipGrads float32
	// L1SyncEvery, when positive, synchronizes L1 weights through the
	// server every so many rounds.
	L1SyncEvery int
	// EvalEvery, when positive, schedules evaluation every so many
	// rounds (and after the final round).
	EvalEvery int
	// EvalData, when non-nil, marks this platform as the evaluator: it
	// measures test accuracy of the composite model (its L1 + the
	// server's layers) during evaluation phases.
	EvalData *dataset.Dataset
	// EvalBatch is the evaluation batch size (default 64).
	EvalBatch int
	// CheckpointEvery, when positive, writes a snapshot of the
	// platform's state to CheckpointDir at every round boundary where
	// the completed-round count is a multiple of it. Requires
	// CheckpointDir.
	CheckpointEvery int
	// CheckpointDir, when set, receives snapshot files
	// (platform-<id>.ckpt). With it set the platform also keeps an
	// in-memory boundary snapshot and writes it out when the session
	// dies mid-round (a server stop, a fatal peer error), so the last
	// consistent state is never lost.
	CheckpointDir string
	// Redial, when set together with RejoinWindow, enables dropout
	// recovery: after a connection error during a training exchange the
	// platform redials, replays the handshake with a Rejoin carrying
	// its protocol position, and resumes where the server tells it to.
	// The returned connection should carry the same metering wrapper as
	// the original. Requires the server to run a RecoveryConfig.
	Redial func() (transport.Conn, error)
	// RejoinWindow bounds how long the platform keeps trying to rejoin
	// after a connection error before giving up.
	RejoinWindow time.Duration
	// Seed seeds the platform's minibatch sampler.
	Seed uint64
	// LRSchedule, when set, adjusts the optimizer's learning rate at the
	// start of every round. Platforms and server normally share the same
	// schedule so the two halves of the model anneal together.
	LRSchedule nn.Schedule
	// Codec compresses the four training-exchange payloads; must match
	// the server's (validated at handshake). Defaults to wire.RawCodec.
	Codec wire.Codec
	// Trace, when set, observes every protocol step.
	Trace TraceFunc
	// Meter, when set, lets the platform snapshot its cumulative
	// training-traffic bytes at each evaluation point (wrap the
	// connection with transport.Metered on the same meter).
	Meter *transport.Meter
}

// validate checks the configuration for consistency and fills
// defaults. All PlatformConfig rules live here.
func (cfg *PlatformConfig) validate() error {
	if cfg.Front == nil {
		return fmt.Errorf("%w: nil front network", ErrConfig)
	}
	if cfg.Opt == nil {
		return fmt.Errorf("%w: nil optimizer", ErrConfig)
	}
	if cfg.Shard == nil || cfg.Shard.Len() == 0 {
		return fmt.Errorf("%w: platform %d has no local data", ErrConfig, cfg.ID)
	}
	if cfg.Batch <= 0 {
		return fmt.Errorf("%w: batch size %d", ErrConfig, cfg.Batch)
	}
	if cfg.Rounds <= 0 {
		return fmt.Errorf("%w: %d rounds", ErrConfig, cfg.Rounds)
	}
	if cfg.StartRound < 0 || cfg.StartRound >= cfg.Rounds {
		return fmt.Errorf("%w: start round %d of %d", ErrConfig, cfg.StartRound, cfg.Rounds)
	}
	if !cfg.LabelSharing && cfg.Loss == nil {
		return fmt.Errorf("%w: label-private mode requires a platform-side loss", ErrConfig)
	}
	if cfg.EvalData != nil && cfg.EvalBatch == 0 {
		cfg.EvalBatch = 64
	}
	if cfg.CheckpointEvery < 0 {
		return fmt.Errorf("%w: checkpoint every %d rounds", ErrConfig, cfg.CheckpointEvery)
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointDir == "" {
		return fmt.Errorf("%w: CheckpointEvery without CheckpointDir", ErrConfig)
	}
	if (cfg.Redial != nil) != (cfg.RejoinWindow > 0) {
		return fmt.Errorf("%w: Redial and RejoinWindow must be set together", ErrConfig)
	}
	if cfg.Codec == nil {
		cfg.Codec = wire.RawCodec{}
	}
	return nil
}

// RoundStat records one round of local training.
type RoundStat struct {
	Round int
	Loss  float64
	Batch int
}

// EvalStat records one evaluation point. Accuracy is -1 on platforms
// that are not the evaluator (they still snapshot their traffic so the
// harness can sum system-wide bytes at the same round).
type EvalStat struct {
	Round         int
	Accuracy      float64
	TrainingBytes int64
}

// PlatformStats is everything a platform measured during a run.
type PlatformStats struct {
	Rounds []RoundStat
	Evals  []EvalStat
}

// FinalLoss returns the last round's training loss.
func (s *PlatformStats) FinalLoss() float64 {
	if len(s.Rounds) == 0 {
		return 0
	}
	return s.Rounds[len(s.Rounds)-1].Loss
}

// Platform runs the platform side of the split-learning protocol.
type Platform struct {
	cfg     PlatformConfig
	sampler *dataset.BatchSampler
	stop    atomic.Bool

	// stash is the in-memory boundary snapshot (CheckpointDir mode):
	// the platform's complete state as of the last round boundary,
	// written to disk if the session dies mid-round.
	stash *Snapshot

	// Wire-path scratch (see wirebuf.go): decode targets for the two
	// inbound training messages, reused round after round, and pooled
	// encode buffers for the two outbound ones. Each message type is in
	// flight at most once per platform, so one slot per type suffices.
	logitsDec []*tensor.Tensor
	cutDec    []*tensor.Tensor
	encActs   payloadSizer
	encGrad   payloadSizer
	encLabels payloadSizer

	// Minibatch gather scratch, reused round after round. Front caches
	// its input batch until the round's backward, which always runs
	// before the next round gathers.
	batchX      *tensor.Tensor
	batchLabels []int
}

// NewPlatform validates cfg and builds a platform.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	indices := make([]int, cfg.Shard.Len())
	for i := range indices {
		indices[i] = i
	}
	return &Platform{
		cfg:     cfg,
		sampler: dataset.NewBatchSampler(indices, cfg.Batch, rng.New(cfg.Seed^0x9e3779b97f4a7c15)),
	}, nil
}

// Stop requests a graceful shutdown: the platform finishes the round
// in flight, writes a final checkpoint (when CheckpointDir is set),
// notifies the server, and Run returns ErrStopped. Safe to call from
// any goroutine (the signal handlers in cmd/splitplatform do).
func (p *Platform) Stop() { p.stop.Store(true) }

// plan derives the deterministic session schedule from the config.
// It must equal the server's (the handshake validates the inputs).
func (p *Platform) plan() sessionPlan {
	return sessionPlan{
		start:       p.cfg.StartRound,
		rounds:      p.cfg.Rounds,
		l1SyncEvery: p.cfg.L1SyncEvery,
		evalEvery:   p.cfg.EvalEvery,
	}
}

// Run executes the full protocol against the server over conn:
// handshake, the training rounds (with L1 sync and evaluation as
// scheduled), and shutdown. It returns the platform's measurements.
// The connection is not closed.
//
// The platform's walk is the same in every server scheduling mode: the
// modes differ only in how the server orders its side of the exchange.
func (p *Platform) Run(conn transport.Conn) (*PlatformStats, error) {
	if p.cfg.Redial != nil {
		rc := transport.NewReconnectable(conn)
		conn = rc
	}
	sess := newSession(p.plan())
	if err := p.handshake(conn); err != nil {
		return nil, err
	}
	p.refreshStash(sess.Round())
	stats, err := p.run(conn, sess)
	if err != nil && !errors.Is(err, ErrStopped) {
		p.writeStashOnAbort()
	}
	return stats, err
}

// run walks the session state machine, one round in flight at a time.
func (p *Platform) run(conn transport.Conn, sess *Session) (*PlatformStats, error) {
	stats := &PlatformStats{}
	for {
		switch sess.State() {
		case StateTrain:
			r := sess.Round()
			nn.ApplySchedule(p.cfg.Opt, p.cfg.LRSchedule, r)
			loss, batch, err := p.trainStep(conn, r)
			var ff *fastForwardError
			if errors.As(err, &ff) {
				// The server proceeded without us while we were
				// disconnected; realign at the round it assigned.
				if serr := sess.SkipTo(ff.round); serr != nil {
					return nil, serr
				}
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("core: platform %d round %d: %w", p.cfg.ID, r, err)
			}
			stats.Rounds = append(stats.Rounds, RoundStat{Round: r, Loss: loss, Batch: batch})
		case StateL1Sync:
			if err := p.l1Sync(conn, sess.Round()); err != nil {
				return nil, fmt.Errorf("core: platform %d L1 sync round %d: %w", p.cfg.ID, sess.Round(), err)
			}
		case StateEval:
			if err := p.evalPoint(conn, sess.Round(), stats); err != nil {
				return nil, err
			}
		case StateDone:
			if err := p.send(conn, &wire.Message{
				Type:     wire.MsgBye,
				Platform: uint32(p.cfg.ID),
				Round:    uint32(p.cfg.Rounds),
			}); err != nil {
				return nil, err
			}
			return stats, nil
		}
		if err := p.advance(sess, conn); err != nil {
			return nil, err
		}
	}
}

// advance moves the session forward and runs the round-boundary hooks
// (checkpoints, graceful stop, stash refresh).
func (p *Platform) advance(sess *Session, conn transport.Conn) error {
	prev := sess.Round()
	st := sess.Advance()
	if st == StateDone || (st == StateTrain && sess.Round() != prev) {
		return p.atBoundary(sess, conn, prev+1)
	}
	return nil
}

// atBoundary runs the platform's round-boundary hooks. completed is
// the number of rounds fully finished.
func (p *Platform) atBoundary(sess *Session, conn transport.Conn, completed int) error {
	stopping := p.stop.Load() && sess.State() != StateDone
	if p.cfg.CheckpointDir != "" {
		if checkpointDue(p.cfg.CheckpointEvery, completed, false) {
			path := PlatformSnapshotPath(p.cfg.CheckpointDir, p.cfg.ID)
			if err := SaveSnapshotFile(path, p.Snapshot(completed)); err != nil {
				return fmt.Errorf("core: platform %d checkpoint at round %d: %w", p.cfg.ID, completed, err)
			}
		}
		p.refreshStash(completed)
	}
	if stopping {
		// The stop snapshot goes to the stash file (never the scheduled
		// checkpoint, which must stay a matched set across parties).
		if p.cfg.CheckpointDir != "" && p.stash != nil {
			path := PlatformStashPath(p.cfg.CheckpointDir, p.cfg.ID)
			if err := SaveSnapshotFile(path, p.stash); err != nil {
				return fmt.Errorf("core: platform %d stop checkpoint: %w", p.cfg.ID, err)
			}
		}
		// Best-effort, non-blocking notice: the server surfaces it as a
		// peer error when it next serves this platform's slot, and the
		// other platforms can then save their own boundary stashes. The
		// caller closes the connection after Run returns, which reaps
		// the goroutine if nobody ever receives.
		msg := &wire.Message{
			Type:     wire.MsgErrorMsg,
			Platform: uint32(p.cfg.ID),
			Payload:  wire.EncodeText(fmt.Sprintf("platform %d stopping: checkpointed %d rounds", p.cfg.ID, completed)),
		}
		go func() { _ = conn.Send(msg) }()
		return fmt.Errorf("%w: platform %d after %d rounds", ErrStopped, p.cfg.ID, completed)
	}
	return nil
}

// refreshStash captures the boundary snapshot kept in memory for
// abort-time persistence. Only active in CheckpointDir mode.
func (p *Platform) refreshStash(nextRound int) {
	if p.cfg.CheckpointDir == "" {
		return
	}
	p.stash = p.Snapshot(nextRound)
}

// writeStashOnAbort persists the last boundary snapshot after a fatal
// mid-round error (best effort — the session is already failing, so a
// save error is not allowed to mask the original one). It writes the
// stash file, never the scheduled-checkpoint file: the peers did not
// checkpoint this boundary, so overwriting the scheduled file would
// destroy the last matched set and make resume impossible.
func (p *Platform) writeStashOnAbort() {
	if p.stash == nil || p.cfg.CheckpointDir == "" {
		return
	}
	_ = SaveSnapshotFile(PlatformStashPath(p.cfg.CheckpointDir, p.cfg.ID), p.stash)
}

// evalPoint records one evaluation point (and, on the evaluator, runs
// the accuracy exchange).
func (p *Platform) evalPoint(conn transport.Conn, r int, stats *PlatformStats) error {
	ev := EvalStat{Round: r, Accuracy: -1}
	if p.cfg.Meter != nil {
		ev.TrainingBytes = TrainingBytes(p.cfg.Meter)
	}
	if p.cfg.EvalData != nil {
		acc, err := p.evalExchange(conn, r)
		if err != nil {
			return fmt.Errorf("core: platform %d eval round %d: %w", p.cfg.ID, r, err)
		}
		ev.Accuracy = acc
	}
	stats.Evals = append(stats.Evals, ev)
	return nil
}

// handshake declares the platform's configuration and waits for the
// server's HelloAck. The ack's payload names the server's mode for
// information only; the platform's walk does not depend on it.
func (p *Platform) handshake(conn transport.Conn) error {
	meta := helloBase(p.cfg.Rounds, p.cfg.LabelSharing, p.cfg.L1SyncEvery, p.cfg.EvalEvery, p.cfg.Codec.Name(), p.cfg.StartRound)
	meta = fmt.Sprintf("%s;evaluator=%t", meta, p.cfg.EvalData != nil)
	if err := p.send(conn, &wire.Message{
		Type:     wire.MsgHello,
		Platform: uint32(p.cfg.ID),
		Payload:  wire.EncodeText(meta),
	}); err != nil {
		return err
	}
	if _, err := p.recv(conn, wire.MsgHelloAck, -1); err != nil {
		return fmt.Errorf("core: platform %d handshake: %w", p.cfg.ID, err)
	}
	return nil
}

// trainStep performs one local minibatch through the split protocol as
// an explicit stage machine and returns the training loss observed for
// it. Compute (forward, loss, backward, step) is bound to stage
// transitions, so a dropout recovery re-entering a wire stage never
// recomputes; the L1 step applies exactly once per round.
func (p *Platform) trainStep(conn transport.Conn, r int) (loss float64, batch int, err error) {
	idx := p.sampler.Next()
	x, labels := p.cfg.Shard.BatchInto(p.batchX, p.batchLabels, idx)
	p.batchX, p.batchLabels = x, labels
	if p.cfg.Augment != nil && x.Rank() == 4 {
		p.cfg.Augment.Apply(x)
	}

	a := p.cfg.Front.Forward(x, true)
	var da, dz *tensor.Tensor
	pos := posActs
	for pos != posDone {
		var err error
		switch pos {
		case posActs:
			err = p.send(conn, &wire.Message{
				Type:     wire.MsgActivations,
				Platform: uint32(p.cfg.ID),
				Round:    uint32(r),
				Payload:  p.encActs.encode(p.cfg.Codec, a),
			})
			if err == nil {
				// Clear last round's gradients now, while the server
				// runs its forward, not when the cut gradient is back
				// and the server is waiting on this platform. A rejoin
				// that replays this stage zeroes again, harmlessly.
				nn.ZeroGrads(p.cfg.Front.Params())
				if p.cfg.LabelSharing {
					pos = posLabels
				} else {
					pos = posLogits
				}
			}
		case posLabels:
			err = p.send(conn, &wire.Message{
				Type:     wire.MsgLabels,
				Platform: uint32(p.cfg.ID),
				Round:    uint32(r),
				Payload:  p.encLabels.encodeLabels(labels),
			})
			if err == nil {
				pos = posCutGrad
			}
		case posLogits:
			var z *tensor.Tensor
			z, err = p.recvLogits(conn, r)
			if err == nil {
				if z.Dim(0) != len(labels) {
					return 0, 0, fmt.Errorf("%w: %d logit rows for %d labels", ErrProtocol, z.Dim(0), len(labels))
				}
				loss, dz = p.cfg.Loss.Loss(z, labels)
				pos = posLossGrad
			}
		case posLossGrad:
			err = p.send(conn, &wire.Message{
				Type:     wire.MsgLossGrad,
				Platform: uint32(p.cfg.ID),
				Round:    uint32(r),
				Payload:  p.encGrad.encode(p.cfg.Codec, dz),
			})
			if err == nil {
				pos = posCutGrad
			}
		case posCutGrad:
			var lossVal float64
			da, lossVal, err = p.recvCutGrad(conn, r)
			if err == nil {
				if p.cfg.LabelSharing {
					loss = lossVal
				}
				pos = posDone
			}
		}
		if err != nil {
			resume, rerr := p.maybeRejoin(conn, r, pos, err)
			if rerr != nil {
				return 0, 0, rerr
			}
			pos = resume
		}
	}
	if !tensor.SameShape(da, a) {
		return 0, 0, fmt.Errorf("%w: cut-grad shape %v, activations %v", ErrProtocol, da.Shape(), a.Shape())
	}

	p.cfg.Front.Backward(da)
	if p.cfg.ClipGrads > 0 {
		nn.ClipGrads(p.cfg.Front.Params(), p.cfg.ClipGrads)
	}
	p.cfg.Opt.Step(p.cfg.Front.Params())
	return loss, len(labels), nil
}

// recvLogits reads and decodes the round's logits.
func (p *Platform) recvLogits(conn transport.Conn, r int) (*tensor.Tensor, error) {
	m, err := p.recv(conn, wire.MsgLogits, r)
	if err != nil {
		return nil, err
	}
	ts, derr := wire.DecodeInto(p.cfg.Codec, p.logitsDec, m.Payload)
	if derr != nil || len(ts) != 1 {
		return nil, fmt.Errorf("%w: bad logits payload", ErrProtocol)
	}
	p.logitsDec = ts
	releasePayload(m)
	return ts[0], nil
}

// recvCutGrad reads and decodes the round's cut gradient (and the loss
// scalar in label-sharing mode).
func (p *Platform) recvCutGrad(conn transport.Conn, r int) (*tensor.Tensor, float64, error) {
	m, err := p.recv(conn, wire.MsgCutGrad, r)
	if err != nil {
		return nil, 0, err
	}
	ts, derr := wire.DecodeInto(p.cfg.Codec, p.cutDec, m.Payload)
	if p.cfg.LabelSharing {
		if derr != nil || len(ts) != 2 {
			return nil, 0, fmt.Errorf("%w: bad cut-grad payload (label sharing)", ErrProtocol)
		}
		p.cutDec = ts
		releasePayload(m)
		return ts[0], float64(ts[1].At()), nil
	}
	if derr != nil || len(ts) != 1 {
		return nil, 0, fmt.Errorf("%w: bad cut-grad payload", ErrProtocol)
	}
	p.cutDec = ts
	releasePayload(m)
	return ts[0], 0, nil
}

// l1Sync pushes L1 weights to the server and installs the weighted
// average it returns.
func (p *Platform) l1Sync(conn transport.Conn, r int) error {
	params := p.cfg.Front.Params()
	weights := make([]*tensor.Tensor, len(params))
	for i, prm := range params {
		weights[i] = prm.W
	}
	if err := p.send(conn, &wire.Message{
		Type:     wire.MsgModelPush,
		Platform: uint32(p.cfg.ID),
		Round:    uint32(r),
		Payload:  wire.EncodeTensors(weights...),
	}); err != nil {
		return err
	}
	m, err := p.recv(conn, wire.MsgModelPush, r)
	if err != nil {
		return err
	}
	ts, derr := wire.DecodeTensors(m.Payload)
	if derr != nil || len(ts) != len(params) {
		return fmt.Errorf("%w: bad averaged-L1 payload", ErrProtocol)
	}
	for i, prm := range params {
		if !tensor.SameShape(prm.W, ts[i]) {
			return fmt.Errorf("%w: averaged L1 tensor %d shape %v, want %v", ErrProtocol, i, ts[i].Shape(), prm.W.Shape())
		}
		prm.W.CopyFrom(ts[i])
	}
	return nil
}

// evalExchange streams the evaluation set through the composite model
// (local L1 forward, remote L2…Lk forward) and returns test accuracy.
// Labels never leave the platform: accuracy is computed locally from
// the logits the server returns.
func (p *Platform) evalExchange(conn transport.Conn, r int) (float64, error) {
	data := p.cfg.EvalData
	n := data.Len()
	correct := 0
	for off := 0; off < n; off += p.cfg.EvalBatch {
		end := off + p.cfg.EvalBatch
		if end > n {
			end = n
		}
		idx := make([]int, end-off)
		for i := range idx {
			idx[i] = off + i
		}
		x, labels := data.Batch(idx)
		a := p.cfg.Front.Forward(x, false)
		if err := p.send(conn, &wire.Message{
			Type:     wire.MsgEvalActivations,
			Platform: uint32(p.cfg.ID),
			Round:    uint32(r),
			Payload:  wire.EncodeTensors(a),
		}); err != nil {
			return 0, err
		}
		m, err := p.recv(conn, wire.MsgEvalLogits, r)
		if err != nil {
			return 0, err
		}
		ts, derr := wire.DecodeTensors(m.Payload)
		if derr != nil || len(ts) != 1 {
			return 0, fmt.Errorf("%w: bad eval logits payload", ErrProtocol)
		}
		pred := tensor.ArgmaxRows(ts[0])
		if len(pred) != len(labels) {
			return 0, fmt.Errorf("%w: %d eval predictions for %d labels", ErrProtocol, len(pred), len(labels))
		}
		for i, c := range pred {
			if c == labels[i] {
				correct++
			}
		}
	}
	if err := p.send(conn, &wire.Message{
		Type:     wire.MsgAck,
		Platform: uint32(p.cfg.ID),
		Round:    uint32(r),
	}); err != nil {
		return 0, err
	}
	return float64(correct) / float64(n), nil
}

func (p *Platform) send(conn transport.Conn, m *wire.Message) error {
	if err := conn.Send(m); err != nil {
		return fmt.Errorf("core: platform %d send %s: %w", p.cfg.ID, m.Type, err)
	}
	p.trace("send", m)
	return nil
}

func (p *Platform) recv(conn transport.Conn, want wire.MsgType, round int) (*wire.Message, error) {
	m, err := recvExpect(conn, want, round)
	if err != nil {
		return nil, fmt.Errorf("core: platform %d: %w", p.cfg.ID, err)
	}
	p.trace("recv", m)
	return m, nil
}

func (p *Platform) trace(dir string, m *wire.Message) {
	if p.cfg.Trace == nil {
		return
	}
	p.cfg.Trace(TraceEvent{
		Party:    fmt.Sprintf("platform-%d", p.cfg.ID),
		Dir:      dir,
		Type:     m.Type,
		Platform: p.cfg.ID,
		Round:    int(m.Round),
		Bytes:    m.WireSize(),
	})
}
