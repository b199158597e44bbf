package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"medsplit/internal/nn"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// ServerConfig configures the central server, which owns the network's
// layers above the cut (L2 … Lk in the paper).
type ServerConfig struct {
	// Back is the server-side half of the model (from models.Split).
	Back *nn.Sequential
	// Opt updates Back's parameters.
	Opt nn.Optimizer
	// Platforms is the number of platforms that will connect.
	Platforms int
	// Rounds is the number of synchronous training rounds. When
	// resuming, rounds in [StartRound, Rounds) execute.
	Rounds int
	// StartRound is the first round to execute: 0 for a fresh run, the
	// checkpoint's NextRound when resuming (see RestoreSnapshot). All
	// parties must agree; the handshake validates it.
	StartRound int
	// Mode selects Sequential (default) or Concat scheduling, two orders
	// over the same per-platform exchange engine (see window.go).
	Mode RoundMode
	// Staleness is the bounded-staleness cap K: an exchange may miss at
	// most K rounds of the other platforms' updates. 0 (the default) is
	// sequential's lockstep; K >= L1SyncEvery is the SplitFed-style
	// schedule (platforms local-parallel between averaging barriers).
	// Sequential mode only.
	Staleness int
	// LabelSharing enables the 2-message ablation where platforms ship
	// labels and the server computes the loss. Requires Loss. The
	// server learns every training label in both modes: here as
	// integers, and in the default label-private mode from the loss
	// gradient, (softmax − onehot)/n, whose one negative entry per row
	// is the label (TestLabelPrivateModeLeaksLabelsToServer recovers
	// all of them under every codec). Label-private mode keeps only the
	// loss computation and the integer labels on the platform.
	LabelSharing bool
	// Loss is required when LabelSharing is set.
	Loss nn.Loss
	// ClipGrads, when positive, clamps server-side gradients before each
	// optimizer step.
	ClipGrads float32
	// L1SyncEvery, when positive, averages the platforms' L1 weights
	// through the server every so many rounds.
	L1SyncEvery int
	// EvalEvery, when positive, schedules evaluation phases every so
	// many rounds (and after the final round).
	EvalEvery int
	// CheckpointEvery, when positive, writes a snapshot of the server's
	// state to CheckpointDir at every round boundary where the number
	// of completed rounds is a multiple of it. Requires CheckpointDir.
	CheckpointEvery int
	// CheckpointDir, when set, receives snapshot files (numbered
	// server-<round>.ckpt generations; legacy server.ckpt stays
	// readable). A graceful Stop also writes its final checkpoint here.
	CheckpointDir string
	// CheckpointRetain, when positive, bounds how many numbered
	// checkpoint generations are kept (oldest pruned first). 0 keeps
	// every generation. Requires CheckpointDir.
	CheckpointRetain int
	// Replication, when set, enables the replicated aggregation tier:
	// every training step is appended to a WAL before its cut gradient
	// is acked, and streamed to warm followers that can promote on
	// leader death (see Follower). Sequential schedule at Staleness 0
	// only; off by default and free when off.
	Replication *ReplicationConfig
	// Recovery, when set, enables platform-dropout recovery: a platform
	// whose connection dies mid-round can rejoin through the broker and
	// resume. Sequential schedule at Staleness 0 only.
	Recovery *RecoveryConfig
	// LRSchedule, when set, adjusts the optimizer's learning rate at the
	// start of every round (see nn.StepDecay, nn.CosineDecay).
	LRSchedule nn.Schedule
	// Compute, when set, gates every server-side compute step (back-half
	// forward, backward, optimizer step, eval forward) through an
	// external admission point; nil (the default) runs ungated. See
	// ComputeGate.
	Compute ComputeGate
	// Codec compresses the four training-exchange payloads
	// (activations, logits, loss gradients, cut gradients). Defaults to
	// the exact wire.RawCodec; both ends must agree (validated at
	// handshake). L1-sync weights and evaluation traffic always use the
	// exact codec so weight averaging and reported accuracy stay exact.
	Codec wire.Codec
	// Trace, when set, observes every protocol step.
	Trace TraceFunc
}

// validate checks the configuration for consistency and fills
// defaults. All ServerConfig rules live here — NewServer is the only
// caller, so every constructed server passed exactly this gate.
func (cfg *ServerConfig) validate() error {
	if cfg.Back == nil {
		return fmt.Errorf("%w: nil back network", ErrConfig)
	}
	if cfg.Opt == nil {
		return fmt.Errorf("%w: nil optimizer", ErrConfig)
	}
	if cfg.Platforms <= 0 {
		return fmt.Errorf("%w: %d platforms", ErrConfig, cfg.Platforms)
	}
	if cfg.Rounds <= 0 {
		return fmt.Errorf("%w: %d rounds", ErrConfig, cfg.Rounds)
	}
	if cfg.StartRound < 0 || cfg.StartRound >= cfg.Rounds {
		return fmt.Errorf("%w: start round %d of %d", ErrConfig, cfg.StartRound, cfg.Rounds)
	}
	if cfg.Mode == 0 {
		cfg.Mode = RoundModeSequential
	}
	switch cfg.Mode {
	case RoundModeSequential, RoundModeConcat:
	default:
		return fmt.Errorf("%w: round mode %v", ErrConfig, cfg.Mode)
	}
	if cfg.Staleness < 0 {
		return fmt.Errorf("%w: staleness cap %d", ErrConfig, cfg.Staleness)
	}
	if cfg.Staleness > 0 && cfg.Mode == RoundModeConcat {
		return fmt.Errorf("%w: staleness cap %d requires per-platform steps, got %v", ErrConfig, cfg.Staleness, cfg.Mode)
	}
	if cfg.pauses() {
		// A pausing schedule runs platform exchanges ahead of the session
		// loop's round counter, so every per-round side effect that
		// assumes a fully synchronized boundary is rejected rather than
		// silently wrong: checkpoints would snapshot mid-window state, a
		// resumed window would not line up with the one that was cut,
		// and a schedule would apply round r's learning rate to later
		// rounds.
		switch {
		case cfg.CheckpointDir != "":
			return fmt.Errorf("%w: checkpoints require exchanges that never pause, got staleness cap %d", ErrConfig, cfg.Staleness)
		case cfg.StartRound > 0:
			return fmt.Errorf("%w: resuming at round %d requires exchanges that never pause, got staleness cap %d", ErrConfig, cfg.StartRound, cfg.Staleness)
		case !nn.ReplaySafe(cfg.Back):
			// A resumed exchange rebuilds the back half's backward cache
			// by replaying its forward pass; stateful or stochastic layers
			// would advance twice per exchange.
			return fmt.Errorf("%w: staleness cap %d requires a replay-safe back half (no stateful or stochastic layers)", ErrConfig, cfg.Staleness)
		case cfg.LRSchedule != nil:
			return fmt.Errorf("%w: LR schedules require exchanges that never pause, got staleness cap %d", ErrConfig, cfg.Staleness)
		}
	}
	if cfg.Mode == RoundModeConcat || cfg.pauses() {
		// Dropout recovery and replication reconcile one platform's
		// exchange at a time, in round order. Under concat one optimizer
		// step spans every platform's exchange, so neither a per-exchange
		// WAL record (repl.onStep) nor a per-exchange rejoin replay can
		// attribute it; a pausing schedule interleaves exchanges across
		// rounds.
		if cfg.Recovery != nil {
			return fmt.Errorf("%w: dropout recovery requires the lockstep sequential schedule, got %v with staleness cap %d", ErrConfig, cfg.Mode, cfg.Staleness)
		}
		if cfg.Replication != nil {
			return fmt.Errorf("%w: replication requires the lockstep sequential schedule, got %v with staleness cap %d", ErrConfig, cfg.Mode, cfg.Staleness)
		}
	}
	if cfg.LabelSharing && cfg.Loss == nil {
		return fmt.Errorf("%w: label sharing requires a server-side loss", ErrConfig)
	}
	if cfg.CheckpointEvery < 0 {
		return fmt.Errorf("%w: checkpoint every %d rounds", ErrConfig, cfg.CheckpointEvery)
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointDir == "" {
		return fmt.Errorf("%w: CheckpointEvery without CheckpointDir", ErrConfig)
	}
	if cfg.CheckpointRetain < 0 {
		return fmt.Errorf("%w: checkpoint retain %d", ErrConfig, cfg.CheckpointRetain)
	}
	if cfg.CheckpointRetain > 0 && cfg.CheckpointDir == "" {
		return fmt.Errorf("%w: CheckpointRetain without CheckpointDir", ErrConfig)
	}
	if cfg.Replication != nil {
		if err := cfg.Replication.validate(cfg); err != nil {
			return err
		}
	}
	if cfg.Recovery != nil {
		if err := cfg.Recovery.validate(); err != nil {
			return err
		}
	}
	if err := ensureCheckpointDir(cfg.CheckpointDir); err != nil {
		return err
	}
	if cfg.Codec == nil {
		cfg.Codec = wire.RawCodec{}
	}
	return nil
}

// platformState is the server's per-platform connection state: the
// transport endpoint, the connection status, and the recovery
// bookkeeping the rejoin handshake needs.
type platformState struct {
	conn   transport.Conn
	rc     *transport.Reconnectable // == conn when recovery is enabled
	status PlatformStatus

	// droppedRound is the round during which the connection died
	// (meaningful while status == PlatformDropped).
	droppedRound int

	// lastCut replays the most recent cut-gradient payload to a
	// platform that died waiting for it (recovery mode only): by the
	// time such a platform rejoins, the server may have moved on and
	// could no longer recompute the gradient from live state.
	lastCut      []byte
	lastCutRound int
}

// Server runs the server side of the split-learning protocol.
type Server struct {
	cfg       ServerConfig
	sess      *Session
	reg       *platformRegistry
	lastBatch []int // most recent minibatch rows seen per platform
	evaluator int   // platform id that runs eval phases; -1 if none
	stop      atomic.Bool

	// repl is the leader-side replication engine (nil when the
	// replicated tier is off); promo is set only on a server built by
	// Follower.Promote and describes the round it resumes inside.
	repl  *replicator
	promo *promoState

	// stash is the in-memory boundary snapshot (CheckpointDir mode):
	// the server's complete state as of the last round boundary,
	// written to the stash file if the session dies mid-round, so a
	// platform failure never costs more than the unfinished round.
	stash *Snapshot

	// ex holds each platform's training exchange in flight (see
	// advance), reused round after round.
	ex []exchange

	// flushedThrough is one past the last round every platform has
	// completed (see windowRound).
	flushedThrough int

	// Concat-mode scratch, reused across rounds so fusing per-platform
	// minibatches and splitting the fused results back stops allocating
	// once batch shapes stabilize.
	fuseParts   []*tensor.Tensor
	fusedLabels []int
	fusedActs   *tensor.Tensor
	fusedGrad   *tensor.Tensor
	splitZ      []*tensor.Tensor // per-platform logits
	splitDA     []*tensor.Tensor // per-platform cut gradients

	// Wire-path scratch (see wirebuf.go). Decoded-tensor slices are per
	// platform because concat mode holds every platform's activations
	// and loss gradients at once; sequential mode simply reuses slot k.
	// Encode buffers come from the shared pool via the per-site sizers.
	actsDec    [][]*tensor.Tensor
	gradDec    [][]*tensor.Tensor
	labelsDec  [][]int
	lossScalar *tensor.Tensor // label-sharing loss value, reused per round
	encLogits  payloadSizer
	encCut     payloadSizer
}

// NewServer validates cfg and builds a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		lastBatch: make([]int, cfg.Platforms),
		evaluator: -1,
		ex:        make([]exchange, cfg.Platforms),
		actsDec:   make([][]*tensor.Tensor, cfg.Platforms),
		gradDec:   make([][]*tensor.Tensor, cfg.Platforms),
		labelsDec: make([][]int, cfg.Platforms),
	}
	if cfg.Replication != nil {
		s.repl = newReplicator(cfg.Replication, cfg.Platforms)
	}
	return s, nil
}

// Stop requests a graceful shutdown: the server finishes the round in
// flight, writes a final checkpoint (when CheckpointDir is set),
// notifies the platforms, and Serve returns ErrStopped. Safe to call
// from any goroutine (the signal handlers in cmd/splitserver do).
func (s *Server) Stop() { s.stop.Store(true) }

// plan derives the deterministic session schedule from the config.
func (s *Server) plan() sessionPlan {
	return sessionPlan{
		start:       s.cfg.StartRound,
		rounds:      s.cfg.Rounds,
		l1SyncEvery: s.cfg.L1SyncEvery,
		evalEvery:   s.cfg.EvalEvery,
	}
}

// Serve drives the full protocol over the given per-platform
// connections (conns[k] talks to platform k). It performs the
// handshake, the training rounds with the scheduled L1-sync and
// evaluation phases, and the shutdown, then returns. Connections are
// not closed.
func (s *Server) Serve(conns []transport.Conn) error {
	if len(conns) != s.cfg.Platforms {
		return fmt.Errorf("%w: %d connections for %d platforms", ErrConfig, len(conns), s.cfg.Platforms)
	}
	err := s.serve(conns)
	if err != nil && !errors.Is(err, ErrStopped) {
		// Mid-round failure: persist the last consistent boundary so the
		// session can resume from it (graceful stops already wrote it).
		s.writeStashOnAbort()
	}
	return err
}

// refreshStash captures the boundary snapshot kept in memory for
// abort-time persistence. Only active in CheckpointDir mode.
func (s *Server) refreshStash(nextRound int) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	s.stash = s.Snapshot(nextRound)
}

// writeStashOnAbort persists the last boundary snapshot after a fatal
// mid-round error (best effort: the session is already failing). It
// writes the stash file, never the scheduled-checkpoint file — a crash
// must not destroy the last matched checkpoint set.
func (s *Server) writeStashOnAbort() {
	if s.stash == nil || s.cfg.CheckpointDir == "" {
		return
	}
	_ = SaveSnapshotFile(ServerStashPath(s.cfg.CheckpointDir), s.stash)
}

// serve walks the session state machine. The round mode's schedule
// executes Train phases; everything else — handshake, L1 sync, eval, checkpoints,
// graceful stop, shutdown — is shared across modes.
func (s *Server) serve(conns []transport.Conn) error {
	s.reg = newPlatformRegistry(conns, s.cfg.Recovery != nil)
	s.sess = newSession(s.plan())
	s.refreshStash(s.cfg.StartRound)
	for {
		switch s.sess.State() {
		case StateHandshake:
			if s.promo != nil {
				// Promoted server: the platforms were validated by the dead
				// leader's handshake and reconciled during Promote; install
				// the session facts the handshake would have produced.
				s.adoptPromotion()
			} else if err := s.handshake(); err != nil {
				return err
			}
			if s.repl != nil {
				if err := s.repl.start(s); err != nil {
					return err
				}
			}
		case StateTrain:
			r := s.sess.Round()
			nn.ApplySchedule(s.cfg.Opt, s.cfg.LRSchedule, r)
			s.adoptRejoiners(r)
			train := s.windowRound
			if s.cfg.Mode == RoundModeConcat {
				train = s.concatRound
			}
			if err := train(r); err != nil {
				return fmt.Errorf("core: server round %d: %w", r, err)
			}
		case StateL1Sync:
			if err := s.l1Sync(s.sess.Round()); err != nil {
				return fmt.Errorf("core: server L1 sync round %d: %w", s.sess.Round(), err)
			}
		case StateEval:
			if err := s.evalIfPresent(s.sess.Round()); err != nil {
				return fmt.Errorf("core: server eval round %d: %w", s.sess.Round(), err)
			}
		case StateDone:
			return s.shutdown()
		}
		prev := s.sess.Round()
		st := s.sess.Advance()
		if st == StateDone || (st == StateTrain && s.sess.Round() != prev) {
			if err := s.atBoundary(prev + 1); err != nil {
				return err
			}
		}
	}
}

// atBoundary runs the round-boundary hooks: scheduled checkpoints and
// the graceful-stop check. completed is the number of rounds fully
// finished (train + any sync/eval phases).
func (s *Server) atBoundary(completed int) error {
	stopping := s.stop.Load() && s.sess.State() != StateDone
	if s.cfg.CheckpointDir != "" {
		if checkpointDue(s.cfg.CheckpointEvery, completed, false) {
			if err := SaveServerSnapshotGen(s.cfg.CheckpointDir, s.Snapshot(completed), s.cfg.CheckpointRetain); err != nil {
				return fmt.Errorf("core: server checkpoint at round %d: %w", completed, err)
			}
			if s.repl != nil {
				// The checkpoint generation is durable: re-anchor the WAL
				// chain here and drop the records it subsumes.
				if err := s.repl.atCheckpoint(s, completed); err != nil {
					return err
				}
			}
		}
		s.refreshStash(completed)
	}
	if stopping {
		// The stop snapshot goes to the stash file: the other parties
		// did not checkpoint this boundary on their schedules, so the
		// scheduled set must stay intact as a matched fallback.
		if s.cfg.CheckpointDir != "" {
			if err := SaveSnapshotFile(ServerStashPath(s.cfg.CheckpointDir), s.stash); err != nil {
				return fmt.Errorf("core: server stop checkpoint at round %d: %w", completed, err)
			}
		}
		// Best-effort, non-blocking notification: a platform already
		// blocked sending its next round's activations cannot take this
		// message (over the in-process pipe transport nobody is
		// receiving), so a synchronous send here would deadlock. The
		// caller closes the connections right after Serve returns, which
		// both delivers the close to the platforms and reaps these
		// goroutines.
		_ = s.reg.eachActive(func(k int, ps *platformState) error {
			// Raw send, no tracing: TraceFuncs are not required to be
			// goroutine-safe and the session goroutine moves on.
			msg := &wire.Message{
				Type:     wire.MsgErrorMsg,
				Platform: uint32(k),
				Payload:  wire.EncodeText(fmt.Sprintf("server stopping: checkpointed %d rounds", completed)),
			}
			conn := ps.conn
			go func() { _ = conn.Send(msg) }()
			return nil
		})
		return fmt.Errorf("%w: after %d rounds", ErrStopped, completed)
	}
	return nil
}

// shutdown completes the session: every active platform says goodbye.
// Dropped platforms (ProceedWithout policy) have nothing to say.
func (s *Server) shutdown() error {
	return s.reg.eachActive(func(k int, ps *platformState) error {
		if _, err := s.recv(ps.conn, wire.MsgBye, -1, k); err != nil {
			return fmt.Errorf("core: platform %d shutdown: %w", k, err)
		}
		ps.status = PlatformDone
		return nil
	})
}

// handshake validates every platform's declared configuration against
// the server's, and learns which platform (if any) evaluates.
func (s *Server) handshake() error {
	want := helloBase(s.cfg.Rounds, s.cfg.LabelSharing, s.cfg.L1SyncEvery, s.cfg.EvalEvery, s.cfg.Codec.Name(), s.cfg.StartRound)
	if err := s.reg.each(func(k int, ps *platformState) error {
		conn := ps.conn
		m, err := s.recv(conn, wire.MsgHello, -1, k)
		if err != nil {
			return fmt.Errorf("core: hello from platform %d: %w", k, err)
		}
		if int(m.Platform) != k {
			return fmt.Errorf("%w: connection %d identifies as platform %d", ErrProtocol, k, m.Platform)
		}
		meta, err := wire.DecodeText(m.Payload)
		if err != nil {
			return fmt.Errorf("core: hello meta from platform %d: %w", k, err)
		}
		base, evaluator, perr := parseHello(meta)
		if perr != nil {
			return fmt.Errorf("core: hello from platform %d: %w", k, perr)
		}
		if base != want {
			s.sendError(conn, k, fmt.Sprintf("config mismatch: server %q, platform %q", want, base))
			return fmt.Errorf("%w: platform %d config %q, server %q", ErrConfig, k, base, want)
		}
		if evaluator {
			if s.evaluator >= 0 {
				return fmt.Errorf("%w: platforms %d and %d both claim evaluator", ErrConfig, s.evaluator, k)
			}
			s.evaluator = k
		}
		// Informational: platforms run the same session walk in every
		// mode; the mode (and the staleness cap) only changes server
		// scheduling. A pausing schedule is named by what it is,
		// bounded staleness, with its cap.
		ack := "mode=" + s.cfg.Mode.String()
		if s.cfg.pauses() {
			ack = fmt.Sprintf("mode=bounded-staleness;k=%d", s.cfg.Staleness)
		}
		return s.send(conn, &wire.Message{
			Type:     wire.MsgHelloAck,
			Platform: uint32(k),
			Payload:  wire.EncodeText(ack),
		}, k)
	}); err != nil {
		return err
	}
	if s.cfg.EvalEvery > 0 && s.evaluator < 0 {
		return fmt.Errorf("%w: EvalEvery=%d but no platform declared evaluator", ErrConfig, s.cfg.EvalEvery)
	}
	return nil
}

// helloBase builds the comparable handshake string both parties derive
// from their configs. The start field appears only on resumed runs, so
// fresh-run handshakes stay wire-compatible round-trip for round-trip
// with earlier releases.
func helloBase(rounds int, labelShare bool, sync, eval int, codec string, start int) string {
	base := fmt.Sprintf("v=1;rounds=%d;labelshare=%t;sync=%d;eval=%d;codec=%s",
		rounds, labelShare, sync, eval, codec)
	if start > 0 {
		base = fmt.Sprintf("%s;start=%d", base, start)
	}
	return base
}

// parseHello splits a hello meta string into the comparable base part
// and the evaluator flag.
func parseHello(meta string) (base string, evaluator bool, err error) {
	idx := strings.LastIndex(meta, ";evaluator=")
	if idx < 0 {
		return "", false, fmt.Errorf("%w: hello meta %q missing evaluator field", ErrProtocol, meta)
	}
	switch meta[idx+len(";evaluator="):] {
	case "true":
		return meta[:idx], true, nil
	case "false":
		return meta[:idx], false, nil
	default:
		return "", false, fmt.Errorf("%w: hello meta %q has bad evaluator value", ErrProtocol, meta)
	}
}

// Wire positions within one platform's train exchange, in protocol
// order. Both parties number them identically; the rejoin handshake
// exchanges positions to agree where a recovered round resumes.
const (
	posActs     = 0 // platform → server: activations
	posLabels   = 1 // platform → server: labels (label-sharing mode)
	posLogits   = 2 // server → platform: logits (label-private mode)
	posLossGrad = 3 // platform → server: loss gradients (label-private mode)
	posCutGrad  = 4 // server → platform: cut gradients
	posDone     = 5 // exchange complete
)

// exchange is one platform's training exchange in flight: its round,
// its wire position, and the values that carry from one stage to the
// next. The server keeps one per platform and reuses it every round.
type exchange struct {
	round   int
	pos     int
	a, z    *tensor.Tensor // decoded activations, logits
	dz, da  *tensor.Tensor // decoded loss gradient, cut gradient
	labels  []int          // decoded labels (label-sharing mode)
	lossVal float64        // label-sharing loss scalar
}

// advance runs platform k's open exchange (see s.ex) as an explicit
// stage machine until it completes or reaches position stop, where it
// parks. Only a label-private exchange reaches posLogits and
// posLossGrad, so a label-sharing exchange can park only at posCutGrad.
//
// Compute runs when the exchange enters the stage that ships its
// result, and only if that result is not set yet: the forward at
// posLogits (x.z), the backward and optimizer step at posCutGrad
// (x.da). Re-entering a wire stage after a dropout recovery never
// recomputes — BatchNorm statistics and optimizer state advance exactly
// once per round however often the wire stages retry — and concat fills
// x.z and x.da for the parked exchanges itself (see fuse).
func (s *Server) advance(k, stop int) error {
	x := &s.ex[k]
	ps := s.reg.state(k)
	r := x.round
	for x.pos != posDone {
		if x.pos == stop {
			return nil
		}
		var err error
		switch x.pos {
		case posActs:
			err = s.recvInput(ps.conn, x, k)
			if err == nil {
				x.pos = posLogits
				if s.cfg.LabelSharing {
					x.pos = posLabels
				}
			}
		case posLabels:
			err = s.recvInput(ps.conn, x, k)
			if err == nil {
				x.pos = posCutGrad
			}
		case posLogits:
			if x.z == nil {
				s.forward(x)
			}
			err = s.send(ps.conn, &wire.Message{
				Type:     wire.MsgLogits,
				Platform: uint32(k),
				Round:    uint32(r),
				Payload:  s.encLogits.encode(s.cfg.Codec, x.z),
			}, k)
			if err == nil {
				x.pos = posLossGrad
			}
		case posLossGrad:
			err = s.recvInput(ps.conn, x, k)
			if err == nil {
				x.pos = posCutGrad
			}
		case posCutGrad:
			if x.da == nil {
				s.backward(x)
			}
			err = s.sendCutGrad(ps, k, r, x.da, x.lossVal)
			if err == nil {
				x.pos = posDone
			}
		}
		if err != nil {
			resume, skip, rerr := s.handleDrop(k, r, x.pos, err)
			if rerr != nil {
				return rerr
			}
			if skip {
				x.pos = posDone
				return nil
			}
			x.pos = resume
		}
	}
	return nil
}

// forward fills x.z with the back half's forward pass on x.a.
func (s *Server) forward(x *exchange) {
	release := s.acquireCompute()
	x.z = s.cfg.Back.Forward(x.a, true)
	release()
}

// backward fills x.da with the back half's backward pass and optimizer
// step on x's minibatch. With label sharing the server owns the loss,
// so the forward, loss and backward run back to back with no wire I/O
// between them and share one gate slot.
func (s *Server) backward(x *exchange) {
	release := s.acquireCompute()
	defer release()
	dz := x.dz
	switch {
	case s.cfg.LabelSharing:
		x.lossVal, dz = s.cfg.Loss.Loss(s.cfg.Back.Forward(x.a, true), x.labels)
	case s.cfg.pauses():
		// A pausing schedule parks every label-private exchange at
		// posLossGrad, where other exchanges' forwards overwrite the back
		// half's backward cache: replay this one's. NewServer only lets
		// replay-safe back halves pause.
		s.cfg.Back.Forward(x.a, true)
	}
	nn.ZeroGrads(nn.GradParams(s.cfg.Back, s.cfg.Opt))
	x.da = nn.BackwardStep(s.cfg.Back, dz, s.cfg.Opt, s.cfg.ClipGrads)
}

// sendCutGrad ships the cut gradient (plus the loss scalar in
// label-sharing mode). In recovery mode the encoded payload is also
// cached so a platform that died waiting for it can be replayed after
// the server has moved on.
func (s *Server) sendCutGrad(ps *platformState, k, r int, da *tensor.Tensor, lossVal float64) error {
	payload := s.encodeCut(da, lossVal)
	if s.cfg.Recovery != nil {
		ps.lastCut = append(ps.lastCut[:0], payload...)
		ps.lastCutRound = r
	}
	if s.repl != nil {
		// Durability before acknowledgement: the step's record (the
		// inputs it was computed from) hits the WAL and the follower
		// streams before the platform can observe the step happened.
		if err := s.repl.onStep(k, r); err != nil {
			return err
		}
	}
	return s.send(ps.conn, &wire.Message{
		Type:     wire.MsgCutGrad,
		Platform: uint32(k),
		Round:    uint32(r),
		Payload:  payload,
	}, k)
}

// encodeCut encodes a step's cut-gradient payload: the gradient, plus
// the loss scalar in label-sharing mode. It is the payload sendCutGrad
// ships and the one a promoted server re-derives for a platform the
// dead leader never delivered it to.
func (s *Server) encodeCut(da *tensor.Tensor, lossVal float64) []byte {
	if !s.cfg.LabelSharing {
		return s.encCut.encode(s.cfg.Codec, da)
	}
	if s.lossScalar == nil {
		s.lossScalar = tensor.New()
	}
	s.lossScalar.Set(float32(lossVal))
	return s.encCut.encode(s.cfg.Codec, da, s.lossScalar)
}

// inputTypes names the message a platform sends at each inbound wire
// position.
var inputTypes = [...]wire.MsgType{
	posActs:     wire.MsgActivations,
	posLabels:   wire.MsgLabels,
	posLossGrad: wire.MsgLossGrad,
}

// recvInput reads platform k's inbound payload at x's wire position and
// decodes it into x. The replicator then copies the payload for the
// step's record, and the frame is recycled.
func (s *Server) recvInput(conn transport.Conn, x *exchange, k int) error {
	m, err := s.recv(conn, inputTypes[x.pos], x.round, k)
	if err != nil {
		return err
	}
	if err := s.decodeInput(x, k, m.Payload); err != nil {
		return err
	}
	if s.repl != nil {
		s.repl.keep(k, x.pos, m.Payload)
	}
	releasePayload(m)
	return nil
}

// decodeInput decodes platform k's payload for x's wire position into
// x, through the platform's decode scratch: the activations (which set
// the platform's last batch size), the labels of the activations' rows,
// or the loss gradient of the logits x.z. Decoded tensors are valid
// until the platform's next decode at that position, which in every
// round mode happens after the round's backward has consumed them.
// Live exchanges and WAL replay share it.
func (s *Server) decodeInput(x *exchange, k int, payload []byte) error {
	switch x.pos {
	case posActs:
		ts, err := wire.DecodeInto(s.cfg.Codec, s.actsDec[k], payload)
		if err != nil || len(ts) != 1 {
			return fmt.Errorf("%w: bad activations payload from platform %d", ErrProtocol, k)
		}
		s.actsDec[k], x.a = ts, ts[0]
		s.lastBatch[k] = x.a.Dim(0)
	case posLabels:
		labels, err := wire.DecodeLabelsInto(s.labelsDec[k], payload)
		if err != nil {
			return fmt.Errorf("%w: bad labels payload from platform %d", ErrProtocol, k)
		}
		s.labelsDec[k] = labels
		if len(labels) != x.a.Dim(0) {
			return fmt.Errorf("%w: %d labels for %d activations", ErrProtocol, len(labels), x.a.Dim(0))
		}
		x.labels = labels
	case posLossGrad:
		ts, err := wire.DecodeInto(s.cfg.Codec, s.gradDec[k], payload)
		if err != nil || len(ts) != 1 {
			return fmt.Errorf("%w: bad loss-grad payload from platform %d", ErrProtocol, k)
		}
		s.gradDec[k] = ts
		if !tensor.SameShape(ts[0], x.z) {
			return fmt.Errorf("%w: loss-grad shape %v, logits %v", ErrProtocol, ts[0].Shape(), x.z.Shape())
		}
		x.dz = ts[0]
	}
	return nil
}

// l1Sync averages the active platforms' L1 weights (weighted by their
// latest minibatch sizes) and redistributes the result. Dropped
// platforms (ProceedWithout policy) neither contribute nor receive;
// they re-align at their next L1 sync after rejoining.
func (s *Server) l1Sync(r int) error {
	var lists [][]*tensor.Tensor
	var weights []float64
	if err := s.reg.eachActive(func(k int, ps *platformState) error {
		m, err := s.recv(ps.conn, wire.MsgModelPush, r, k)
		if err != nil {
			return err
		}
		ts, derr := wire.DecodeTensors(m.Payload)
		if derr != nil {
			return fmt.Errorf("%w: bad L1 push from platform %d", ErrProtocol, k)
		}
		if len(lists) > 0 && len(ts) != len(lists[0]) {
			return fmt.Errorf("%w: platform %d pushed %d tensors, want %d", ErrProtocol, k, len(ts), len(lists[0]))
		}
		lists = append(lists, ts)
		weights = append(weights, float64(s.lastBatch[k]))
		return nil
	}); err != nil {
		return err
	}
	if len(lists) == 0 {
		return fmt.Errorf("%w: L1 sync with no active platforms", ErrProtocol)
	}
	// Weighted average into fresh tensors. The arithmetic is the
	// parameter-averaging kernel shared with the FedAvg baseline, so
	// periodic L1 averaging and standalone FedAvg agree bit for bit on
	// how platform weights combine.
	avg := make([]*tensor.Tensor, len(lists[0]))
	for i := range avg {
		avg[i] = tensor.New(lists[0][i].Shape()...)
	}
	if err := nn.AverageInto(avg, lists, weights); err != nil {
		return fmt.Errorf("%w: L1 sync: %v", ErrProtocol, err)
	}
	payload := wire.EncodeTensors(avg...)
	return s.reg.eachActive(func(k int, ps *platformState) error {
		return s.send(ps.conn, &wire.Message{
			Type:     wire.MsgModelPush,
			Platform: uint32(k),
			Round:    uint32(r),
			Payload:  payload,
		}, k)
	})
}

// evalIfPresent runs the evaluation phase when an evaluator exists and
// is connected.
func (s *Server) evalIfPresent(r int) error {
	if s.evaluator < 0 || s.reg.state(s.evaluator).status != PlatformActive {
		return nil
	}
	return s.evalPhase(s.reg.state(s.evaluator).conn, r)
}

// evalPhase answers a stream of evaluation batches from the evaluator
// platform until it sends MsgAck. Evaluation runs the back half in
// inference mode and never updates weights.
func (s *Server) evalPhase(conn transport.Conn, r int) error {
	for {
		m, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("core: eval recv: %w", err)
		}
		s.trace("recv", m, s.evaluator)
		switch m.Type {
		case wire.MsgAck:
			return nil
		case wire.MsgEvalActivations:
			ts, derr := wire.DecodeTensors(m.Payload)
			if derr != nil || len(ts) != 1 {
				return fmt.Errorf("%w: bad eval activations", ErrProtocol)
			}
			release := s.acquireCompute()
			z := s.cfg.Back.Forward(ts[0], false)
			release()
			if err := s.send(conn, &wire.Message{
				Type:     wire.MsgEvalLogits,
				Platform: uint32(s.evaluator),
				Round:    uint32(r),
				Payload:  wire.EncodeTensors(z),
			}, s.evaluator); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: %s during eval phase", ErrProtocol, m.Type)
		}
	}
}

// send traces and transmits.
func (s *Server) send(conn transport.Conn, m *wire.Message, platform int) error {
	if err := conn.Send(m); err != nil {
		return fmt.Errorf("core: server send %s to platform %d: %w", m.Type, platform, err)
	}
	s.trace("send", m, platform)
	return nil
}

// recv traces and validates an expected message.
func (s *Server) recv(conn transport.Conn, want wire.MsgType, round, platform int) (*wire.Message, error) {
	m, err := recvExpect(conn, want, round)
	if err != nil {
		return nil, fmt.Errorf("core: server: platform %d: %w", platform, err)
	}
	s.trace("recv", m, platform)
	return m, nil
}

func (s *Server) trace(dir string, m *wire.Message, platform int) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace(TraceEvent{
		Party:    "server",
		Dir:      dir,
		Type:     m.Type,
		Platform: platform,
		Round:    int(m.Round),
		Bytes:    m.WireSize(),
	})
}

// sendError reports a fatal condition to a platform (best effort).
func (s *Server) sendError(conn transport.Conn, platform int, text string) {
	_ = s.send(conn, &wire.Message{
		Type:     wire.MsgErrorMsg,
		Platform: uint32(platform),
		Payload:  wire.EncodeText(text),
	}, platform)
}
