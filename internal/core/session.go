package core

import "fmt"

// This file is the session layer: one explicit state machine for the
// split-learning protocol that both parties — and every scheduling
// mode — drive. Before the refactor each party had a monolithic round
// loop, with the schedule logic
// (when to train, sync L1, evaluate, stop) duplicated and interleaved
// with wire I/O. Now the schedule is a value (sessionPlan), the
// protocol position is a value (Session), and the round modes decide
// only HOW a train phase orders its exchanges, never WHAT the next
// phase is. Checkpointing and dropout recovery both
// hang off this machine: a checkpoint is a serialization of the
// session position plus party state at a round boundary, and a rejoin
// is a negotiation that re-enters the machine at an agreed position.

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
