package core

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"medsplit/internal/wire"
)

// This file is the session layer: one explicit state machine for the
// split-learning protocol, and one walk over it that both parties — and
// every scheduling mode — drive. The schedule is a value (sessionPlan),
// the protocol position is a value (Session), each label mode's train
// exchange is a table (trainTable), and the walk (walker.run) calls a
// party's hooks for each phase and runs the round-boundary steps the
// same way for both. The round modes decide only HOW a train phase
// orders its exchanges, never WHAT the next phase is. Checkpointing and
// dropout recovery both hang off this machine: a checkpoint is a
// serialization of the session position plus party state at a round
// boundary, and a rejoin is a negotiation that re-enters the exchange
// table at an agreed position.

// SessionState names a phase of the split-learning session. The
// sequence for a run of R rounds is:
//
//	Handshake → { Train → [L1Sync] → [Eval] }×R → Done
//
// with L1Sync and Eval appearing on the rounds the plan schedules
// them (always in that order, matching the paper's Fig. 3 flow).
type SessionState uint8

// Session states.
const (
	StateHandshake SessionState = iota + 1
	StateTrain
	StateL1Sync
	StateEval
	StateDone
)

// String names the state for diagnostics.
func (s SessionState) String() string {
	switch s {
	case StateHandshake:
		return "handshake"
	case StateTrain:
		return "train"
	case StateL1Sync:
		return "l1sync"
	case StateEval:
		return "eval"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// sessionPlan is the deterministic schedule both parties derive from
// their configurations (and validate equal at the handshake): which
// rounds run, and which of them carry an L1 sync or an evaluation
// phase. It is pure data — both ends computing the same plan is what
// keeps a geo-distributed session in lockstep without a coordinator.
type sessionPlan struct {
	start  int // first round to execute (> 0 when resuming a checkpoint)
	rounds int // total rounds; rounds in [start, rounds) execute

	l1SyncEvery int
	evalEvery   int
}

// syncRound reports whether round r ends with an L1 weight sync.
func (p sessionPlan) syncRound(r int) bool {
	return p.l1SyncEvery > 0 && (r+1)%p.l1SyncEvery == 0
}

// evalRound reports whether round r ends with an evaluation phase.
// The final round always evaluates when evaluation is on.
func (p sessionPlan) evalRound(r int) bool {
	if p.evalEvery <= 0 {
		return false
	}
	return (r+1)%p.evalEvery == 0 || r == p.rounds-1
}

// Session tracks a party's position in the protocol: the current
// state and the current round. Both the server and each platform hold
// one; both advance it identically, which is the lockstep invariant
// the handshake establishes. The server's round modes only order a
// Train phase's exchanges on one engine (see window.go).
type Session struct {
	plan  sessionPlan
	state SessionState
	round int
}

// newSession starts a session at the handshake, positioned on the
// plan's first round.
func newSession(plan sessionPlan) *Session {
	return &Session{plan: plan, state: StateHandshake, round: plan.start}
}

// State returns the current phase.
func (s *Session) State() SessionState { return s.state }

// Round returns the round the session is positioned on. Meaningful in
// Train/L1Sync/Eval; after Done it holds the last executed round + 1.
func (s *Session) Round() int { return s.round }

// Advance moves to the next phase per the plan and returns it.
// Advancing past the last phase of the last round reaches StateDone;
// advancing from StateDone stays there.
func (s *Session) Advance() SessionState {
	switch s.state {
	case StateHandshake:
		if s.round >= s.plan.rounds {
			s.state = StateDone
			break
		}
		s.state = StateTrain
	case StateTrain:
		switch {
		case s.plan.syncRound(s.round):
			s.state = StateL1Sync
		case s.plan.evalRound(s.round):
			s.state = StateEval
		default:
			s.nextRound()
		}
	case StateL1Sync:
		if s.plan.evalRound(s.round) {
			s.state = StateEval
		} else {
			s.nextRound()
		}
	case StateEval:
		s.nextRound()
	case StateDone:
	}
	return s.state
}

// nextRound crosses a round boundary: the following round's Train
// phase, or Done after the last round.
func (s *Session) nextRound() {
	s.round++
	if s.round >= s.plan.rounds {
		s.state = StateDone
		return
	}
	s.state = StateTrain
}

// SkipTo jumps the session to the Train phase of round r — how a
// platform that was disconnected while the server proceeded without it
// realigns after a rejoin. Jumping backwards or past the end is a
// protocol violation.
func (s *Session) SkipTo(r int) error {
	if r < s.round || r >= s.plan.rounds {
		return fmt.Errorf("%w: skip to round %d from round %d of %d", ErrProtocol, r, s.round, s.plan.rounds)
	}
	s.round = r
	s.state = StateTrain
	return nil
}

// PlatformStatus is the server's view of one platform's connection.
type PlatformStatus uint8

// Platform connection states.
const (
	// PlatformActive: connected and in lockstep with the session.
	PlatformActive PlatformStatus = iota + 1
	// PlatformDropped: the connection died and the server is proceeding
	// without the platform (ProceedWithout policy); it may rejoin at a
	// later round boundary.
	PlatformDropped
	// PlatformDone: the platform completed the session and said Bye.
	PlatformDone
)

// String names the status.
func (s PlatformStatus) String() string {
	switch s {
	case PlatformActive:
		return "active"
	case PlatformDropped:
		return "dropped"
	case PlatformDone:
		return "done"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Wire positions within one platform's train exchange, in protocol
// order. Both parties number them identically, and the rejoin
// handshake exchanges them to agree where a recovered round resumes,
// so the values are part of the wire format.
const (
	posActs     = 0 // platform → server: activations
	posLabels   = 1 // platform → server: labels (label-sharing mode)
	posLogits   = 2 // server → platform: logits (label-private mode)
	posLossGrad = 3 // platform → server: loss gradients (label-private mode)
	posCutGrad  = 4 // server → platform: cut gradients
	posDone     = 5 // exchange complete
)

// step is one message of a train exchange: its wire position, whether
// the platform sends it (up) or the server does, and its type.
type step struct {
	pos int
	up  bool
	typ wire.MsgType
}

// trainTable is one label mode's train exchange, a step per message in
// protocol order. Both parties walk it: the server in Server.advance,
// the platform in Platform.train.
type trainTable []step

// The two train exchanges. Label-private is the paper's four messages
// (Fig. 2/3): the loss stays on the platform. Label sharing ships the
// labels and lets the server compute the loss: two messages up, one
// down.
var (
	labelPrivateTable = trainTable{
		{posActs, true, wire.MsgActivations},
		{posLogits, false, wire.MsgLogits},
		{posLossGrad, true, wire.MsgLossGrad},
		{posCutGrad, false, wire.MsgCutGrad},
	}
	labelSharingTable = trainTable{
		{posActs, true, wire.MsgActivations},
		{posLabels, true, wire.MsgLabels},
		{posCutGrad, false, wire.MsgCutGrad},
	}
)

// tableFor returns the train exchange of a label mode.
func tableFor(labelSharing bool) trainTable {
	if labelSharing {
		return labelSharingTable
	}
	return labelPrivateTable
}

// index returns the index of the step at wire position pos, or -1 when
// the exchange has no such step.
func (t trainTable) index(pos int) int {
	for i, st := range t {
		if st.pos == pos {
			return i
		}
	}
	return -1
}

// next returns the wire position after step i: the next step's, or
// posDone after the last.
func (t trainTable) next(i int) int {
	if i+1 < len(t) {
		return t[i+1].pos
	}
	return posDone
}

// validateSession checks the configuration rules both parties share —
// the round range and the checkpoint schedule — creates a configured
// checkpoint directory (parents included), and fills the codec default.
// Each party's validate calls it last, so the directory is created only
// for a configuration that passed every other rule, and a path that
// cannot hold checkpoints fails the constructor with ErrConfig instead
// of the session at its first scheduled checkpoint.
func validateSession(rounds, start, ckptEvery int, ckptDir string, codec *wire.Codec) error {
	if rounds <= 0 {
		return fmt.Errorf("%w: %d rounds", ErrConfig, rounds)
	}
	if start < 0 || start >= rounds {
		return fmt.Errorf("%w: start round %d of %d", ErrConfig, start, rounds)
	}
	if ckptEvery < 0 {
		return fmt.Errorf("%w: checkpoint every %d rounds", ErrConfig, ckptEvery)
	}
	if ckptEvery > 0 && ckptDir == "" {
		return fmt.Errorf("%w: CheckpointEvery without CheckpointDir", ErrConfig)
	}
	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return fmt.Errorf("%w: checkpoint directory %q: %v", ErrConfig, ckptDir, err)
		}
	}
	if *codec == nil {
		*codec = wire.RawCodec{}
	}
	return nil
}

// party is one side of the session walk: what it does in each phase,
// and its round-boundary hooks. Server and Platform implement it.
type party interface {
	handshake() error
	// train runs round r's train phase. A *fastForwardError realigns
	// the walk at a later round instead of failing it.
	train(r int) error
	l1Sync(r int) error
	eval(r int) error
	// bye completes the session.
	bye() error
	// checkpoint writes the scheduled checkpoint after completed rounds.
	checkpoint(completed int) error
	// Snapshot captures the party's state at a round boundary.
	Snapshot(nextRound int) *Snapshot
	// stopNotice tells the peers the party is leaving, best effort and
	// without blocking, and returns the ErrStopped error to report.
	stopNotice(completed int) error
}

// walker is one party's progress through the session: its position, the
// graceful-stop request and the boundary stash. Server and Platform
// each embed one and drive it with run.
type walker struct {
	sess *Session
	stop atomic.Bool

	who       string // "server" or "platform <id>", for error texts
	ckptDir   string // CheckpointDir; "" turns checkpoints and the stash off
	ckptEvery int
	stashPath string

	// stash is the in-memory boundary snapshot (CheckpointDir mode): the
	// party's complete state as of the last round boundary, written to
	// the stash file if the session dies mid-round, so a failure never
	// costs more than the unfinished round.
	stash *Snapshot
}

// run walks the session from the handshake to the end. After a fatal
// mid-round error it persists the last boundary snapshot (graceful
// stops already wrote it), best effort so a save error never masks the
// original one. It writes the stash file, never the scheduled
// checkpoint: the peers did not checkpoint this boundary, so
// overwriting the scheduled file would destroy the last matched set.
func (w *walker) run(p party) error {
	if w.ckptDir != "" {
		w.stash = p.Snapshot(w.sess.Round())
	}
	err := w.phases(p)
	if err != nil && !errors.Is(err, ErrStopped) && w.stash != nil {
		_ = SaveSnapshotFile(w.stashPath, w.stash)
	}
	return err
}

// phases runs each phase the session reaches and the round-boundary
// steps between rounds.
func (w *walker) phases(p party) error {
	for {
		r := w.sess.Round()
		switch w.sess.State() {
		case StateHandshake:
			if err := p.handshake(); err != nil {
				return err
			}
		case StateTrain:
			if err := p.train(r); err != nil {
				// ff is declared only on the error path: errors.As moves
				// it to the heap, which would cost every round an
				// allocation.
				var ff *fastForwardError
				if !errors.As(err, &ff) {
					return fmt.Errorf("core: %s round %d: %w", w.who, r, err)
				}
				// The server proceeded without this platform while it was
				// disconnected; realign at the round it assigned.
				if err := w.sess.SkipTo(ff.round); err != nil {
					return err
				}
				continue
			}
		case StateL1Sync:
			if err := p.l1Sync(r); err != nil {
				return fmt.Errorf("core: %s L1 sync round %d: %w", w.who, r, err)
			}
		case StateEval:
			if err := p.eval(r); err != nil {
				return fmt.Errorf("core: %s eval round %d: %w", w.who, r, err)
			}
		case StateDone:
			return p.bye()
		}
		if st := w.sess.Advance(); st == StateDone || (st == StateTrain && w.sess.Round() != r) {
			if err := w.boundary(p, r+1); err != nil {
				return err
			}
		}
	}
}

// boundary runs the round-boundary steps after completed rounds (train
// plus any sync and eval phases), in order: the scheduled checkpoint if
// due, the stash refresh, and on a stop request the stop stash, the
// stop notice and ErrStopped.
func (w *walker) boundary(p party, completed int) error {
	if w.ckptDir != "" {
		if w.ckptEvery > 0 && completed%w.ckptEvery == 0 {
			if err := p.checkpoint(completed); err != nil {
				return err
			}
		}
		w.stash = p.Snapshot(completed)
	}
	if !w.stop.Load() || w.sess.State() == StateDone {
		return nil
	}
	if w.ckptDir != "" {
		// The stop snapshot goes to the stash file: the other parties did
		// not checkpoint this boundary on their schedules, so the
		// scheduled set must stay intact as a matched fallback.
		if err := SaveSnapshotFile(w.stashPath, w.stash); err != nil {
			return fmt.Errorf("core: %s stop checkpoint at round %d: %w", w.who, completed, err)
		}
	}
	return p.stopNotice(completed)
}
