package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// Dropout recovery. Geo-distributed platforms disconnect: WAN links
// flap, hospital processes restart, stragglers time out. Without
// recovery, one mid-round connection error aborts the whole job and
// every trained weight is lost. This file implements the rejoin
// protocol on top of the session layer:
//
//   - A platform whose connection dies redials (PlatformConfig.Redial),
//     sends MsgRejoin carrying its protocol position — the round it is
//     executing and the wire position (pos*) it stopped at — and waits
//     for MsgRejoinAck.
//   - Replacement connections reach the server through a RejoinBroker:
//     whatever accepts connections (a TCP accept loop, a test harness,
//     an example) hands them to Broker.Offer, which reads the MsgRejoin
//     and routes it by platform id.
//   - The server reconciles the two positions. Exactly one message can
//     be in flight when a link dies; comparing the server's position
//     with the platform's identifies it, the ack tells the platform
//     where to resume (round + position), and each side re-emits only
//     what the other never received (see Server.reconcile, which a
//     failover promotion shares). Compute is bound to the steps of the
//     train table (see Server.advance / Platform.train), so a replayed
//     wire step never re-runs a forward, backward or optimizer step.
//
// Two policies govern a drop (RecoveryConfig.Policy):
//
//   - WaitForRejoin: the server blocks the round up to Window for the
//     platform to return, then resumes exactly where the exchange
//     broke. A run interrupted this way finishes with weights
//     bit-identical to an uninterrupted run — the recovery tests
//     enforce it.
//   - ProceedWithout: the server abandons the platform's in-flight
//     exchange (deterministically: its remaining minibatches are
//     simply not trained on) and continues serving the others. The
//     platform may rejoin at a later round boundary; the ack then
//     fast-forwards it — it skips the missed rounds, realigns its
//     sampler, and resumes. Final weights differ from the
//     uninterrupted run but are a deterministic function of the kill
//     point.
//
// Recovery covers the training exchange under the lockstep sequential
// schedule (staleness 0, validated at construction). Drops during
// handshake, L1 sync or evaluation
// phases remain fatal — those phases are rare, cheap to retry from a
// checkpoint, and their replay semantics (partial weight averages)
// are genuinely ambiguous.

// RejoinPolicy selects how the server treats a dropped platform.
type RejoinPolicy uint8

// Rejoin policies.
const (
	// WaitForRejoin blocks the round until the platform reconnects
	// (bounded by RecoveryConfig.Window), preserving bit-identical
	// training.
	WaitForRejoin RejoinPolicy = iota + 1
	// ProceedWithout deterministically skips the dropped platform's
	// minibatches and lets it rejoin at a later round boundary.
	ProceedWithout
)

// String names the policy.
func (p RejoinPolicy) String() string {
	switch p {
	case WaitForRejoin:
		return "wait-for-rejoin"
	case ProceedWithout:
		return "proceed-without"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// RecoveryConfig enables platform-dropout recovery on the server.
type RecoveryConfig struct {
	// Policy selects WaitForRejoin or ProceedWithout.
	Policy RejoinPolicy
	// Window bounds how long the server waits for a rejoin: the whole
	// wait under WaitForRejoin, the total patience for stragglers under
	// ProceedWithout (a platform that has not rejoined by the end of
	// the session is simply left out).
	Window time.Duration
	// Broker delivers replacement connections.
	Broker *RejoinBroker
}

func (rc *RecoveryConfig) validate() error {
	switch rc.Policy {
	case WaitForRejoin, ProceedWithout:
	default:
		return fmt.Errorf("%w: rejoin policy %v", ErrConfig, rc.Policy)
	}
	if rc.Window <= 0 {
		return fmt.Errorf("%w: rejoin window %v", ErrConfig, rc.Window)
	}
	if rc.Broker == nil {
		return fmt.Errorf("%w: recovery without a rejoin broker", ErrConfig)
	}
	return nil
}

// rejoinOffer is one replacement connection with its opening MsgRejoin.
type rejoinOffer struct {
	conn   transport.Conn
	rejoin *wire.Message
}

// RejoinBroker routes replacement connections to the server session.
// The accept side (a TCP accept loop, a test harness) calls Offer with
// each new connection whose first message is a MsgRejoin; the server
// session collects offers at its recovery points. All methods are safe
// for concurrent use.
type RejoinBroker struct {
	mu     sync.Mutex
	offers map[int][]*rejoinOffer
	notify chan struct{}
	closed bool
}

// NewRejoinBroker builds an empty broker.
func NewRejoinBroker() *RejoinBroker {
	return &RejoinBroker{offers: make(map[int][]*rejoinOffer), notify: make(chan struct{})}
}

// Offer reads the connection's opening message — which must be a
// MsgRejoin — and queues the connection for the server session. It
// blocks until that first message arrives, so callers run it from the
// accept goroutine. On any error the connection is closed.
func (b *RejoinBroker) Offer(conn transport.Conn) error {
	m, err := conn.Recv()
	if err != nil {
		conn.Close()
		return fmt.Errorf("core: rejoin offer: %w", err)
	}
	if m.Type != wire.MsgRejoin {
		conn.Close()
		return fmt.Errorf("%w: rejoin offer opened with %s", ErrProtocol, m.Type)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		conn.Close()
		return fmt.Errorf("core: rejoin broker closed")
	}
	k := int(m.Platform)
	b.offers[k] = append(b.offers[k], &rejoinOffer{conn: conn, rejoin: m})
	close(b.notify)
	b.notify = make(chan struct{})
	return nil
}

// Close rejects future offers and closes any queued, un-adopted
// connections.
func (b *RejoinBroker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, q := range b.offers {
		for _, o := range q {
			o.conn.Close()
		}
	}
	b.offers = nil
	close(b.notify)
}

// take pops the freshest offer for platform k without blocking,
// closing any staler ones (the platform abandoned those transports
// when it retried).
func (b *RejoinBroker) take(k int) *rejoinOffer {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.offers[k]
	if len(q) == 0 {
		return nil
	}
	for _, stale := range q[:len(q)-1] {
		stale.conn.Close()
	}
	latest := q[len(q)-1]
	delete(b.offers, k)
	return latest
}

// await blocks up to window for an offer for platform k.
func (b *RejoinBroker) await(k int, window time.Duration) *rejoinOffer {
	deadline := time.Now().Add(window)
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return nil
		}
		if len(b.offers[k]) > 0 {
			b.mu.Unlock()
			return b.take(k)
		}
		ch := b.notify
		b.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// recoverable reports whether an I/O error is a candidate for
// recovery: transport failures (resets, EOFs, closed links) are;
// protocol violations and wire-level decode failures (bad frame,
// version skew, checksum mismatch) are not — a peer that speaks
// garbage is a configuration or corruption problem, and redialing it
// would just burn the rejoin window re-admitting the same garbage.
func recoverable(err error) bool {
	if err == nil || errors.Is(err, ErrProtocol) {
		return false
	}
	for _, fatal := range []error{
		wire.ErrBadMagic, wire.ErrBadVersion, wire.ErrBadType,
		wire.ErrChecksum, wire.ErrTooLarge, wire.ErrBadPayload,
	} {
		if errors.Is(err, fatal) {
			return false
		}
	}
	return true
}

// rejoinMeta formats / parses the MsgRejoin payload: the round the
// platform is executing and the wire position it stopped at.
func rejoinMeta(round, pos int) string {
	return fmt.Sprintf("next=%d;pos=%d", round, pos)
}

// ackMeta formats / parses the MsgRejoinAck payload: the round and
// wire position the platform must resume at.
func ackMeta(round, pos int) string {
	return fmt.Sprintf("round=%d;pos=%d", round, pos)
}

// parseMetaInts extracts integer fields from a k=v;k=v meta string.
func parseMetaInts(meta string, keys ...string) (map[string]int, error) {
	out := make(map[string]int, len(keys))
	for _, f := range strings.Split(meta, ";") {
		eq := strings.IndexByte(f, '=')
		if eq < 0 {
			continue
		}
		k, v := f[:eq], f[eq+1:]
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("%w: meta field %q", ErrProtocol, f)
		}
		out[k] = n
	}
	for _, k := range keys {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("%w: meta %q missing %q", ErrProtocol, meta, k)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Server side

// handleDrop is the server's recovery entry point: a wire operation
// for platform k at round r failed at wire position pos. It returns
// the position to resume the exchange at, or skip=true when the round
// proceeds without the platform (ProceedWithout), or an error when the
// drop is fatal (no recovery configured, protocol violation, window
// expired).
func (s *Server) handleDrop(k, r, pos int, cause error) (resume int, skip bool, err error) {
	if s.cfg.Recovery == nil || !recoverable(cause) {
		return 0, false, cause
	}
	ps := s.reg.state(k)
	if s.cfg.Recovery.Policy == ProceedWithout {
		ps.status = PlatformDropped
		return 0, true, nil
	}
	offer := s.cfg.Recovery.Broker.await(k, s.cfg.Recovery.Window)
	if offer == nil {
		return 0, false, fmt.Errorf("core: platform %d dropped at round %d pos %d and did not rejoin within %v: %w",
			k, r, pos, s.cfg.Recovery.Window, cause)
	}
	resume, err = s.adopt(ps, k, r, pos, offer)
	if err != nil {
		return 0, false, err
	}
	return resume, false, nil
}

// adopt reconciles platform k's live rejoin against the server's
// exchange for it, at round serverRound and wire position serverPos,
// then installs the replacement connection and returns the position
// the server resumes at. At a round boundary (ProceedWithout) the
// position is the round's posActs.
func (s *Server) adopt(ps *platformState, k, serverRound, serverPos int, offer *rejoinOffer) (resume int, err error) {
	resume, err = s.reconcile(offer, k, serverRound, serverPos, ps.lastCut, ps.lastCutRound, true)
	if err != nil {
		return 0, err
	}
	ps.rc.Swap(offer.conn).Close()
	ps.status = PlatformActive
	return resume, nil
}

// reconcile answers platform k's rejoin on offer's connection, live or
// at a failover promotion. The server's exchange for k stands at round
// serverRound and wire position serverPos; cut is the last cut-gradient
// payload the server produced for k, in round cutRound. Exactly one
// message can be in flight when a link dies, and comparing the
// platform's announced position with the server's identifies it:
//
//   - Same round: the lost message is the earliest position either side
//     still needs; both resume there.
//   - The platform died waiting for the previous round's cut gradient,
//     which the server has moved past: ack that position and replay the
//     cached payload; the platform finishes that round and arrives at
//     the server's position naturally.
//   - With fastForward (live rejoin only), a platform further behind
//     was dropped while the server proceeded: ack the server's round
//     from the top, and the platform skips ahead.
//
// Anything else means the two sides disagree about history: refuse
// loudly rather than train on divergent state. reconcile sends the ack
// (and the replay) and returns the position the server resumes at; on
// error it closes the offer's connection.
func (s *Server) reconcile(offer *rejoinOffer, k, serverRound, serverPos int, cut []byte, cutRound int, fastForward bool) (resume int, err error) {
	meta, err := wire.DecodeText(offer.rejoin.Payload)
	var fields map[string]int
	if err == nil {
		fields, err = parseMetaInts(meta, "next", "pos")
	}
	if err != nil {
		offer.conn.Close()
		return 0, fmt.Errorf("core: platform %d rejoin meta: %w", k, err)
	}
	pRound, pPos := fields["next"], fields["pos"]
	s.trace("recv", offer.rejoin, k)

	ackRound, ackPos, replay := pRound, min(serverPos, pPos), false
	resume = serverPos
	switch {
	case pRound == serverRound && (pPos == posDone || s.table.index(pPos) >= 0):
		resume = ackPos
	case pRound == serverRound-1 && pPos == posCutGrad && cut != nil && cutRound == pRound:
		ackPos, replay = posCutGrad, true
	case fastForward && pRound < serverRound:
		ackRound, ackPos = serverRound, posActs
	default:
		offer.conn.Close()
		return 0, fmt.Errorf("%w: platform %d rejoins at round %d pos %d, server at round %d pos %d",
			ErrProtocol, k, pRound, pPos, serverRound, serverPos)
	}

	err = s.send(offer.conn, &wire.Message{
		Type:     wire.MsgRejoinAck,
		Platform: uint32(k),
		Round:    uint32(ackRound),
		Payload:  wire.EncodeText(ackMeta(ackRound, ackPos)),
	}, k)
	if err == nil && replay {
		err = s.send(offer.conn, &wire.Message{
			Type:     wire.MsgCutGrad,
			Platform: uint32(k),
			Round:    uint32(cutRound),
			Payload:  append([]byte(nil), cut...),
		}, k)
	}
	if err != nil {
		offer.conn.Close()
		return 0, err
	}
	return resume, nil
}

// adoptRejoiners runs at the start of each training round under the
// ProceedWithout policy: dropped platforms whose replacement
// connections have arrived are fast-forwarded to the current round and
// re-enter the rotation.
func (s *Server) adoptRejoiners(r int) {
	if s.cfg.Recovery == nil || s.cfg.Recovery.Policy != ProceedWithout {
		return
	}
	_ = s.reg.each(func(k int, ps *platformState) error {
		if ps.status != PlatformDropped {
			return nil
		}
		offer := s.cfg.Recovery.Broker.take(k)
		if offer == nil {
			return nil
		}
		if _, err := s.adopt(ps, k, r, posActs, offer); err != nil {
			// A malformed rejoin keeps the platform dropped; it may try
			// again at the next boundary.
			ps.status = PlatformDropped
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// Platform side

// fastForwardError reroutes the plain scheduler: the server assigned a
// later round after a ProceedWithout rejoin; the in-flight round is
// abandoned and the session skips ahead.
type fastForwardError struct{ round int }

func (e *fastForwardError) Error() string {
	return fmt.Sprintf("core: fast-forwarded to round %d after rejoin", e.round)
}

// maybeRejoin is the platform's recovery entry point: a wire operation
// at round r failed at wire position pos. When recovery is configured
// it redials, performs the rejoin handshake, and returns the position
// to resume at (or a fastForwardError that the scheduler turns into a
// session skip). Otherwise the original error is returned.
func (p *Platform) maybeRejoin(r, pos int, cause error) (resume int, err error) {
	if p.cfg.Redial == nil || !recoverable(cause) {
		return 0, cause
	}
	rc, ok := p.conn.(*transport.Reconnectable)
	if !ok {
		return 0, cause
	}
	deadline := time.Now().Add(p.cfg.RejoinWindow)
	for {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("core: platform %d could not rejoin within %v: %w", p.cfg.ID, p.cfg.RejoinWindow, cause)
		}
		fresh, derr := p.cfg.Redial()
		if derr != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		// Watchdog: Conn has no deadline API, so a server that accepts
		// the dial but never answers the rejoin would park the Recv
		// forever. Closing the connection at the window's edge unblocks
		// it and the loop's deadline check turns that into the timeout
		// error RejoinWindow promises.
		watchdog := time.AfterFunc(time.Until(deadline), func() { fresh.Close() })
		ackRound, ackPos, jerr := p.rejoinHandshake(fresh, r, pos)
		watchdog.Stop()
		if jerr != nil {
			fresh.Close()
			if errors.Is(jerr, ErrProtocol) {
				return 0, jerr
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		old := rc.Swap(fresh)
		old.Close()
		if ackRound > r {
			// The server proceeded without us: realign the batch stream
			// (round r's batch was drawn; rounds r+1..ackRound-1 are
			// skipped) and let the scheduler jump the session.
			p.sampler.Skip(ackRound - 1 - r)
			return 0, &fastForwardError{round: ackRound}
		}
		if ackRound != r || ackPos > pos || p.table.index(ackPos) < 0 {
			return 0, fmt.Errorf("%w: rejoin ack round %d pos %d, platform at round %d pos %d",
				ErrProtocol, ackRound, ackPos, r, pos)
		}
		return ackPos, nil
	}
}

// rejoinHandshake sends MsgRejoin on a fresh connection and waits for
// the ack.
func (p *Platform) rejoinHandshake(conn transport.Conn, r, pos int) (ackRound, ackPos int, err error) {
	rejoin := &wire.Message{
		Type:     wire.MsgRejoin,
		Platform: uint32(p.cfg.ID),
		Round:    uint32(r),
		Payload:  wire.EncodeText(rejoinMeta(r, pos)),
	}
	if err := conn.Send(rejoin); err != nil {
		return 0, 0, err
	}
	p.trace("send", rejoin)
	m, err := recvExpect(conn, wire.MsgRejoinAck, -1)
	if err != nil {
		return 0, 0, err
	}
	p.trace("recv", m)
	meta, err := wire.DecodeText(m.Payload)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: rejoin ack payload: %v", ErrProtocol, err)
	}
	fields, err := parseMetaInts(meta, "round", "pos")
	if err != nil {
		return 0, 0, err
	}
	return fields["round"], fields["pos"], nil
}
