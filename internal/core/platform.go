package core

import (
	"fmt"
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
	// activations and the server computes the loss. Without it the
	// labels stay off the wire as integers, but the loss gradient the
	// platform returns still reveals each row's label to the server
	// (see ServerConfig.LabelSharing).
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
	if !cfg.LabelSharing && cfg.Loss == nil {
		return fmt.Errorf("%w: label-private mode requires a platform-side loss", ErrConfig)
	}
	if cfg.EvalData != nil && cfg.EvalBatch == 0 {
		cfg.EvalBatch = 64
	}
	if (cfg.Redial != nil) != (cfg.RejoinWindow > 0) {
		return fmt.Errorf("%w: Redial and RejoinWindow must be set together", ErrConfig)
	}
	return validateSession(cfg.Rounds, cfg.StartRound, cfg.CheckpointEvery, cfg.CheckpointDir, &cfg.Codec)
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
	walker  // the session position, stop request and boundary stash
	cfg     PlatformConfig
	table   trainTable // the label mode's train exchange
	sampler *dataset.BatchSampler

	// conn and stats belong to the session Run drives.
	conn  transport.Conn
	stats *PlatformStats

	// Wire-path scratch (see wirebuf.go): decode targets for the two
	// inbound training messages, reused round after round, and pooled
	// encode buffers for the outbound ones. Each message type is in
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
		walker: walker{
			sess:      newSession(sessionPlan{cfg.StartRound, cfg.Rounds, cfg.L1SyncEvery, cfg.EvalEvery}),
			who:       fmt.Sprintf("platform %d", cfg.ID),
			ckptDir:   cfg.CheckpointDir,
			ckptEvery: cfg.CheckpointEvery,
			stashPath: PlatformStashPath(cfg.CheckpointDir, cfg.ID),
		},
		cfg:     cfg,
		table:   tableFor(cfg.LabelSharing),
		sampler: dataset.NewBatchSampler(indices, cfg.Batch, rng.New(cfg.Seed^0x9e3779b97f4a7c15)),
	}, nil
}

// Stop requests a graceful shutdown: the platform finishes the round
// in flight, writes a final checkpoint (when CheckpointDir is set),
// notifies the server, and Run returns ErrStopped. Safe to call from
// any goroutine (the signal handlers in cmd/splitplatform do).
func (p *Platform) Stop() { p.stop.Store(true) }

// Run executes the full protocol against the server over conn — the
// session walk (see walker.run) through the handshake, the training
// rounds (with L1 sync and evaluation as scheduled), and shutdown — and
// returns the platform's measurements. The connection is not closed.
//
// The platform's walk is the same in every server scheduling mode: the
// modes differ only in how the server orders its side of the exchange.
func (p *Platform) Run(conn transport.Conn) (*PlatformStats, error) {
	if p.cfg.Redial != nil {
		conn = transport.NewReconnectable(conn)
	}
	p.conn, p.stats = conn, &PlatformStats{}
	if err := p.run(p); err != nil {
		return nil, err
	}
	return p.stats, nil
}

// checkpoint writes the scheduled checkpoint after completed rounds.
func (p *Platform) checkpoint(completed int) error {
	path := PlatformSnapshotPath(p.cfg.CheckpointDir, p.cfg.ID)
	if err := SaveSnapshotFile(path, p.Snapshot(completed)); err != nil {
		return fmt.Errorf("core: platform %d checkpoint at round %d: %w", p.cfg.ID, completed, err)
	}
	return nil
}

// stopNotice tells the server the platform is stopping. The notice is
// best effort and non-blocking: the server surfaces it as a peer error
// when it next serves this platform's slot, and the other platforms can
// then save their own boundary stashes. The caller closes the
// connection after Run returns, which reaps the goroutine if nobody
// ever receives.
func (p *Platform) stopNotice(completed int) error {
	msg := &wire.Message{
		Type:     wire.MsgErrorMsg,
		Platform: uint32(p.cfg.ID),
		Payload:  wire.EncodeText(fmt.Sprintf("platform %d stopping: checkpointed %d rounds", p.cfg.ID, completed)),
	}
	conn := p.conn
	go func() { _ = conn.Send(msg) }()
	return fmt.Errorf("%w: platform %d after %d rounds", ErrStopped, p.cfg.ID, completed)
}

// bye completes the session.
func (p *Platform) bye() error {
	return p.send(&wire.Message{Type: wire.MsgBye, Platform: uint32(p.cfg.ID), Round: uint32(p.cfg.Rounds)})
}

// eval records one evaluation point (and, on the evaluator, runs the
// accuracy exchange).
func (p *Platform) eval(r int) error {
	ev := EvalStat{Round: r, Accuracy: -1}
	if p.cfg.Meter != nil {
		ev.TrainingBytes = TrainingBytes(p.cfg.Meter)
	}
	if p.cfg.EvalData != nil {
		acc, err := p.evalExchange(r)
		if err != nil {
			return err
		}
		ev.Accuracy = acc
	}
	p.stats.Evals = append(p.stats.Evals, ev)
	return nil
}

// handshake declares the platform's configuration and waits for the
// server's HelloAck. The ack's payload names the server's mode for
// information only; the platform's walk does not depend on it.
func (p *Platform) handshake() error {
	meta := helloBase(p.cfg.Rounds, p.cfg.LabelSharing, p.cfg.L1SyncEvery, p.cfg.EvalEvery, p.cfg.Codec.Name(), p.cfg.StartRound)
	meta = fmt.Sprintf("%s;evaluator=%t", meta, p.cfg.EvalData != nil)
	if err := p.send(&wire.Message{
		Type:     wire.MsgHello,
		Platform: uint32(p.cfg.ID),
		Payload:  wire.EncodeText(meta),
	}); err != nil {
		return err
	}
	if _, err := p.recv(wire.MsgHelloAck, -1); err != nil {
		return fmt.Errorf("core: platform %d handshake: %w", p.cfg.ID, err)
	}
	return nil
}

// train runs round r's local minibatch along the label mode's train
// table and records the training loss observed for it. Compute
// (forward, loss, backward, step) is bound to the steps, so a dropout
// recovery re-entering a wire step never recomputes; the L1 step
// applies exactly once per round.
func (p *Platform) train(r int) error {
	nn.ApplySchedule(p.cfg.Opt, p.cfg.LRSchedule, r)
	idx := p.sampler.Next()
	x, labels := p.cfg.Shard.BatchInto(p.batchX, p.batchLabels, idx)
	p.batchX, p.batchLabels = x, labels
	if p.cfg.Augment != nil && x.Rank() == 4 {
		p.cfg.Augment.Apply(x)
	}

	a := p.cfg.Front.Forward(x, true)
	var da, dz *tensor.Tensor
	var loss float64
	for pos := posActs; pos != posDone; {
		i := p.table.index(pos)
		st := p.table[i]
		var err error
		if st.up {
			var payload []byte
			switch pos {
			case posActs:
				payload = p.encActs.encode(p.cfg.Codec, a)
			case posLabels:
				payload = p.encLabels.encodeLabels(labels)
			default: // posLossGrad
				payload = p.encGrad.encode(p.cfg.Codec, dz)
			}
			err = p.send(&wire.Message{Type: st.typ, Platform: uint32(p.cfg.ID), Round: uint32(r), Payload: payload})
			if err == nil && pos == posActs {
				// Clear last round's gradients now, while the server runs
				// its forward, not when the cut gradient is back and the
				// server is waiting on this platform. A rejoin that
				// replays this step zeroes again, harmlessly. Only
				// parameters that still materialize a gradient need it:
				// BackwardStep leaves a dense layer's G untouched under
				// plain SGD.
				nn.ZeroGrads(nn.GradParams(p.cfg.Front, p.cfg.Opt))
			}
		} else {
			var ts []*tensor.Tensor
			if pos == posLogits {
				ts, err = p.recvTensors(st.typ, r, &p.logitsDec, 1)
				if err == nil {
					if ts[0].Dim(0) != len(labels) {
						return fmt.Errorf("%w: %d logit rows for %d labels", ErrProtocol, ts[0].Dim(0), len(labels))
					}
					loss, dz = p.cfg.Loss.Loss(ts[0], labels)
				}
			} else {
				// posCutGrad: the cut gradient, plus the loss scalar the
				// server computed in label-sharing mode.
				want := 1
				if p.cfg.LabelSharing {
					want = 2
				}
				if ts, err = p.recvTensors(st.typ, r, &p.cutDec, want); err == nil {
					da = ts[0]
					if p.cfg.LabelSharing {
						loss = float64(ts[1].At())
					}
				}
			}
		}
		if err == nil {
			pos = p.table.next(i)
			continue
		}
		if pos, err = p.maybeRejoin(r, pos, err); err != nil {
			return err
		}
	}
	if !tensor.SameShape(da, a) {
		return fmt.Errorf("%w: cut-grad shape %v, activations %v", ErrProtocol, da.Shape(), a.Shape())
	}

	nn.BackwardStep(p.cfg.Front, da, p.cfg.Opt, p.cfg.ClipGrads)
	p.stats.Rounds = append(p.stats.Rounds, RoundStat{Round: r, Loss: loss, Batch: len(labels)})
	return nil
}

// recvTensors reads the round's message of type typ and decodes its
// want tensors through the decode scratch *dec.
func (p *Platform) recvTensors(typ wire.MsgType, r int, dec *[]*tensor.Tensor, want int) ([]*tensor.Tensor, error) {
	m, err := p.recv(typ, r)
	if err != nil {
		return nil, err
	}
	ts, derr := wire.DecodeInto(p.cfg.Codec, *dec, m.Payload)
	if derr != nil || len(ts) != want {
		return nil, fmt.Errorf("%w: bad %s payload", ErrProtocol, typ)
	}
	*dec = ts
	releasePayload(m)
	return ts, nil
}

// l1Sync pushes L1 weights to the server and installs the weighted
// average it returns.
func (p *Platform) l1Sync(r int) error {
	params := p.cfg.Front.Params()
	weights := make([]*tensor.Tensor, len(params))
	for i, prm := range params {
		weights[i] = prm.W
	}
	if err := p.send(&wire.Message{
		Type:     wire.MsgModelPush,
		Platform: uint32(p.cfg.ID),
		Round:    uint32(r),
		Payload:  wire.EncodeTensors(weights...),
	}); err != nil {
		return err
	}
	m, err := p.recv(wire.MsgModelPush, r)
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
func (p *Platform) evalExchange(r int) (float64, error) {
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
		if err := p.send(&wire.Message{
			Type:     wire.MsgEvalActivations,
			Platform: uint32(p.cfg.ID),
			Round:    uint32(r),
			Payload:  wire.EncodeTensors(a),
		}); err != nil {
			return 0, err
		}
		m, err := p.recv(wire.MsgEvalLogits, r)
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
	if err := p.send(&wire.Message{
		Type:     wire.MsgAck,
		Platform: uint32(p.cfg.ID),
		Round:    uint32(r),
	}); err != nil {
		return 0, err
	}
	return float64(correct) / float64(n), nil
}

func (p *Platform) send(m *wire.Message) error {
	if err := p.conn.Send(m); err != nil {
		return fmt.Errorf("core: platform %d send %s: %w", p.cfg.ID, m.Type, err)
	}
	p.trace("send", m)
	return nil
}

func (p *Platform) recv(want wire.MsgType, round int) (*wire.Message, error) {
	m, err := recvExpect(p.conn, want, round)
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
