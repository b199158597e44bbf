package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"medsplit/internal/nn"
	"medsplit/internal/transport"
	"medsplit/internal/wal"
	"medsplit/internal/wire"
)

// Replicated aggregation tier. The split server is the architecture's
// single point of failure: it holds the only live copy of the back
// half, the optimizer state and the session position. This file makes
// that state survive a leader crash with a bit-identical training
// trajectory:
//
//   - The leader appends one WAL record per training step (round r,
//     platform k) BEFORE sending the step's cut gradient — the ack a
//     platform acts on is never ahead of durable state — and streams
//     the same records to N warm followers.
//   - A follower persists every record to its own WAL and tracks the
//     last recorded round per platform and a replication watermark (the
//     WAL index of the last persisted record). It computes nothing
//     while the leader lives.
//   - On leader death the follower promotes: it installs the last base
//     snapshot in its WAL, re-executes the step records after it,
//     derives the exact round/step the leader died at, opens a rejoin
//     window, and re-adopts every platform through the same
//     rejoin-handshake vocabulary the dropout-recovery path uses —
//     failover is a server-initiated rejoin in reverse.
//
// Record contents. A step record carries the step's inputs, not its
// effect: the activations payload and the labels or loss-gradient
// payload, byte for byte as the server received them. The server step
// is a deterministic function of (state, inputs), which every digest
// test pins, so re-executing the records in log order through the same
// forward and backward lands on byte-identical state and re-derives
// the exact cut payload a platform may still be owed. This is the
// paper's own byte argument applied to the log: cut-layer tensors are
// small next to the parameters a state delta would carry. A follower
// must compute the leader's bits, so the bootstrap carries the
// leader's GOARCH and a follower on another architecture (arm64 fuses
// multiply-adds, amd64 does not) refuses the stream.
//
// Chain anchoring. The first WAL record is a full base snapshot; at
// every durable checkpoint generation the leader appends a fresh base
// record and compacts the log before it, so the log is always
// self-contained: replay = install the last base, re-execute forward.
//
// Promotion latency. Promotion re-executes every step recorded since
// the last base, one server step each (decode, forward, backward,
// optimizer step): at most CheckpointEvery × Platforms steps, or every
// step of the session when the leader writes no checkpoints.
//
// Scope. Replication covers leader death during the training phase
// (where the paper's traffic and compute live). Death during the
// handshake, an L1-sync or an eval phase remains fatal, mirroring the
// dropout-recovery scope and for the same reason: partial
// weight-average replay semantics are genuinely ambiguous. Promoted
// servers always run sequentially, the only mode replication admits.

// ErrReplica reports a malformed replication record or stream.
var ErrReplica = errors.New("core: bad replication record")

// Record kinds inside WAL records and MsgReplRecord payloads.
const (
	replKindBase byte = 1 // payload: EncodeSnapshot (full server state)
	replKindStep byte = 2 // payload: step record (see encodeStepRecord)
)

// ReplicationConfig enables the replicated aggregation tier on the
// leader.
type ReplicationConfig struct {
	// Log is the leader's write-ahead log. Every training step is
	// appended (and, per the log's fsync policy, made durable) before
	// the step's cut gradient is sent.
	Log *wal.Log
	// Followers are open streams to warm followers (core.Follower on
	// the far side). A follower whose stream dies is dropped; the
	// leader trains on.
	Followers []transport.Conn
}

func (rc *ReplicationConfig) validate(cfg *ServerConfig) error {
	if rc.Log == nil {
		return fmt.Errorf("%w: replication without a WAL", ErrConfig)
	}
	if cfg.Recovery != nil && cfg.Recovery.Policy != WaitForRejoin {
		// ProceedWithout lets the round structure diverge per platform;
		// the promotion reconciliation assumes the dense step grammar.
		return fmt.Errorf("%w: replication requires the WaitForRejoin recovery policy", ErrConfig)
	}
	return nil
}

// stepRecord is one training step's inputs: what the server received
// from platform k in round r.
type stepRecord struct {
	round    int
	platform int
	acts     []byte // activations payload as received
	tail     []byte // labels (label sharing) or loss-gradient payload as received
}

// stepHeader is a step record's fixed prefix (see encodeStepRecord).
const stepHeader = 1 + 4 + 4 + 4

// encodeStepRecord serializes a step record. Layout (little-endian):
//
//	kind u8 | round u32 | platform u32 | actsBytes u32 | acts | tail
//
// Integrity comes from the containers: WAL records and wire frames
// both carry CRC-32 over exactly these bytes.
func encodeStepRecord(rec *stepRecord) []byte {
	buf := make([]byte, 0, stepHeader+len(rec.acts)+len(rec.tail))
	buf = append(buf, replKindStep)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.round))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.platform))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.acts)))
	buf = append(buf, rec.acts...)
	return append(buf, rec.tail...)
}

// decodeStepRecord parses a step record (including its kind byte). The
// payloads alias buf.
func decodeStepRecord(buf []byte) (*stepRecord, error) {
	if len(buf) < stepHeader {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrReplica, len(buf))
	}
	if buf[0] != replKindStep {
		return nil, fmt.Errorf("%w: kind %d, want step", ErrReplica, buf[0])
	}
	n := uint64(binary.LittleEndian.Uint32(buf[9:]))
	rest := buf[stepHeader:]
	if n > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: activations block %d bytes, %d remain", ErrReplica, n, len(rest))
	}
	return &stepRecord{
		round:    int(binary.LittleEndian.Uint32(buf[1:])),
		platform: int(binary.LittleEndian.Uint32(buf[5:])),
		acts:     rest[:n],
		tail:     rest[n:],
	}, nil
}

// ---------------------------------------------------------------------------
// Leader side

// replicator is the leader's replication engine: WAL appends plus the
// follower streams. It lives on the session goroutine; no locking.
type replicator struct {
	log       *wal.Log
	followers []transport.Conn // dead entries are nil
	lastRound []int            // dedup: last round recorded per platform
	// acts and tail hold each platform's inbound payloads of its open
	// exchange, copied on receipt (the transport recycles the frames).
	acts, tail [][]byte
}

func newReplicator(rc *ReplicationConfig, platforms int) *replicator {
	rp := &replicator{
		log:       rc.Log,
		followers: append([]transport.Conn(nil), rc.Followers...),
		lastRound: make([]int, platforms),
		acts:      make([][]byte, platforms),
		tail:      make([][]byte, platforms),
	}
	for k := range rp.lastRound {
		rp.lastRound[k] = -1
	}
	return rp
}

// keep copies platform k's inbound payload at wire position pos
// (posActs, posLabels or posLossGrad) for the step's record.
func (rp *replicator) keep(k, pos int, payload []byte) {
	if pos == posActs {
		rp.acts[k] = append(rp.acts[k][:0], payload...)
	} else {
		rp.tail[k] = append(rp.tail[k][:0], payload...)
	}
}

// start anchors the chain: append the full base snapshot to the WAL,
// then bootstrap every follower (base + session meta) and wait for
// each one's ack so a "warm" follower is provably warm before the
// first round trains. A follower that fails to bootstrap is dropped —
// durability comes from the WAL; followers only buy failover latency.
func (rp *replicator) start(s *Server) error {
	baseBytes := EncodeSnapshot(s.Snapshot(s.cfg.StartRound))
	if _, err := rp.log.Append(append([]byte{replKindBase}, baseBytes...)); err != nil {
		return fmt.Errorf("core: replication base append: %w", err)
	}
	// The meta's GOARCH is the kernel fingerprint: a follower re-executes
	// the log, so it must compute the leader's bits.
	meta := wire.EncodeText(fmt.Sprintf("evaluator=%d;goarch=%s", s.evaluator, runtime.GOARCH))
	for i, fc := range rp.followers {
		if fc == nil {
			continue
		}
		// Base, ack, then meta: the follower acks right after the base
		// lands, so collecting the ack before the next send keeps the
		// bootstrap deadlock-free over rendezvous transports.
		ok := fc.Send(&wire.Message{Type: wire.MsgReplBase, Payload: baseBytes}) == nil
		if ok {
			m, err := fc.Recv()
			ok = err == nil && m.Type == wire.MsgReplAck
		}
		if ok {
			ok = fc.Send(&wire.Message{Type: wire.MsgReplMeta, Payload: meta}) == nil
		}
		if !ok {
			fc.Close()
			rp.followers[i] = nil
		}
	}
	return nil
}

// onStep records platform k's round-r step, durably, before the caller
// sends the step's cut gradient. Re-entering the cut-grad wire stage
// after a platform drop calls this again with the same (r, k); the
// dedup guard keeps the step recorded exactly once, matching the
// compute-exactly-once contract of the stage machine.
func (rp *replicator) onStep(k, r int) error {
	if rp.lastRound[k] == r {
		return nil
	}
	payload := encodeStepRecord(&stepRecord{round: r, platform: k, acts: rp.acts[k], tail: rp.tail[k]})
	if _, err := rp.log.Append(payload); err != nil {
		return fmt.Errorf("core: replication append round %d platform %d: %w", r, k, err)
	}
	rp.lastRound[k] = r
	rp.broadcast(&wire.Message{
		Type:     wire.MsgReplRecord,
		Platform: uint32(k),
		Round:    uint32(r),
		Payload:  payload,
	})
	return nil
}

// broadcast streams a record to the live followers, dropping any whose
// stream has died. Best effort by design: the leader's durability
// story is the WAL, and a leader must not abort training because a
// standby machine went away.
func (rp *replicator) broadcast(m *wire.Message) {
	for i, fc := range rp.followers {
		if fc == nil {
			continue
		}
		if err := fc.Send(m); err != nil {
			fc.Close()
			rp.followers[i] = nil
		}
	}
}

// atCheckpoint re-anchors the chain at a durable checkpoint boundary:
// append a fresh base record, compact everything before it, and stream
// the base to the followers, which re-anchor their own logs on it. The
// logs stay self-contained (replay = last base + the steps after it)
// while their size, and a promotion's re-execution, track the
// checkpoint interval instead of the session length. Compaction is
// segment-granular, so some pre-base records may survive; replay skips
// them.
func (rp *replicator) atCheckpoint(s *Server, completed int) error {
	record := append([]byte{replKindBase}, EncodeSnapshot(s.Snapshot(completed))...)
	idx, err := rp.log.Append(record)
	if err != nil {
		return fmt.Errorf("core: replication base at round %d: %w", completed, err)
	}
	if err := rp.log.CompactBefore(idx); err != nil {
		return fmt.Errorf("core: replication compaction at round %d: %w", completed, err)
	}
	rp.broadcast(&wire.Message{Type: wire.MsgReplRecord, Round: uint32(completed), Payload: record})
	return nil
}

// ---------------------------------------------------------------------------
// Replica state

// replicaState is what a log says about the session without executing
// it: the last base snapshot and its WAL index, and the last recorded
// round per platform. The streaming follower and promotion's scan of
// the follower's WAL both build one; re-execution (Server.replayWAL)
// adds the cut payload each platform's last step produced.
type replicaState struct {
	base      *Snapshot
	baseIndex uint64
	lastRound []int    // last recorded round per platform
	lastCut   [][]byte // last step's cut payload per platform (replay on rejoin)
}

func newReplicaState(platforms int) *replicaState {
	rs := &replicaState{
		lastRound: make([]int, platforms),
		lastCut:   make([][]byte, platforms),
	}
	for k := range rs.lastRound {
		rs.lastRound[k] = -1
	}
	return rs
}

// note folds the record at WAL index idx into the bookkeeping. A base
// resets the chain; a step advances its platform's round.
func (rs *replicaState) note(idx uint64, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty record", ErrReplica)
	}
	switch payload[0] {
	case replKindBase:
		snap, err := DecodeSnapshot(payload[1:])
		if err != nil {
			return fmt.Errorf("%w: base record: %v", ErrReplica, err)
		}
		if snap.Role != RoleServer {
			return fmt.Errorf("%w: base snapshot role %s", ErrReplica, snap.Role)
		}
		rs.base, rs.baseIndex = snap, idx
		for k := range rs.lastRound {
			rs.lastRound[k] = snap.NextRound - 1
		}
		return nil
	case replKindStep:
		rec, err := decodeStepRecord(payload)
		if err != nil {
			return err
		}
		if rs.base == nil {
			return fmt.Errorf("%w: step record before any base", ErrReplica)
		}
		if rec.platform < 0 || rec.platform >= len(rs.lastRound) {
			return fmt.Errorf("%w: step for platform %d of %d", ErrReplica, rec.platform, len(rs.lastRound))
		}
		rs.lastRound[rec.platform] = rec.round
		return nil
	default:
		return fmt.Errorf("%w: record kind %d", ErrReplica, payload[0])
	}
}

// scanWAL reads a log's bookkeeping: the last base and the per-platform
// record rounds. Steps ahead of the first retained base are skipped:
// compaction is segment-granular, so the segment holding a base may
// keep the steps it subsumes.
func scanWAL(log *wal.Log, platforms int) (*replicaState, error) {
	rs := newReplicaState(platforms)
	err := log.Iterate(log.FirstIndex(), func(idx uint64, payload []byte) error {
		if rs.base == nil && len(payload) > 0 && payload[0] == replKindStep {
			return nil
		}
		return rs.note(idx, payload)
	})
	if err != nil {
		return nil, err
	}
	if rs.base == nil {
		return nil, fmt.Errorf("%w: log holds no base record", ErrReplica)
	}
	return rs, nil
}

// replayWAL rebuilds the leader's server state from a scanned log:
// install the last base, then re-execute every step record after it,
// in log order, on this server's own back half and optimizer. It is
// the follower's promotion path, and it runs on the durable copy, not
// an in-memory one. Each platform's last step also re-derives its cut
// payload into rs.lastCut.
func (s *Server) replayWAL(log *wal.Log, rs *replicaState) error {
	// The records between the base and the server's start round
	// re-execute under their own rounds (see replayStep).
	base := *rs.base
	base.NextRound = s.cfg.StartRound
	if err := s.RestoreSnapshot(&base); err != nil {
		return err
	}
	return log.Iterate(rs.baseIndex+1, func(_ uint64, payload []byte) error {
		rec, err := decodeStepRecord(payload)
		if err != nil {
			return err
		}
		if err := s.replayStep(rec, rs); err != nil {
			return fmt.Errorf("%w: round %d platform %d: %v", ErrReplica, rec.round, rec.platform, err)
		}
		return nil
	})
}

// replayStep re-executes one recorded step: the LR schedule for the
// record's round, then the same forward and backward that advance
// drives on live inputs.
func (s *Server) replayStep(rec *stepRecord, rs *replicaState) error {
	k := rec.platform
	nn.ApplySchedule(s.cfg.Opt, s.cfg.LRSchedule, rec.round)
	x := &s.ex[k]
	*x = exchange{round: rec.round, pos: posActs}
	if err := s.decodeInput(x, k, rec.acts); err != nil {
		return err
	}
	x.pos = posLabels
	if !s.cfg.LabelSharing {
		s.forward(x)
		x.pos = posLossGrad
	}
	if err := s.decodeInput(x, k, rec.tail); err != nil {
		return err
	}
	s.backward(x)
	x.pos = posDone
	if rec.round == rs.lastRound[k] {
		rs.lastCut[k] = s.encodeCut(x.da, x.lossVal)
	}
	return nil
}

// resumePoint derives where the session stands from the per-platform
// record rounds. Sequential scheduling records platforms in id order
// within a round, so either every platform recorded round r (the round
// completed; resume at r+1) or a prefix did (the leader died inside
// round max; resume there, skipping the platforms already stepped).
func (rs *replicaState) resumePoint() (round int, done []bool) {
	lo, hi := rs.lastRound[0], rs.lastRound[0]
	for _, r := range rs.lastRound {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo == hi {
		return hi + 1, make([]bool, len(rs.lastRound))
	}
	done = make([]bool, len(rs.lastRound))
	for k, r := range rs.lastRound {
		done[k] = r == hi
	}
	return hi, done
}

// ---------------------------------------------------------------------------
// Follower side

// FollowerConfig configures a warm follower.
type FollowerConfig struct {
	// Platforms is the session's platform count (must match the
	// leader's).
	Platforms int
	// Conn is the replication stream from the leader.
	Conn transport.Conn
	// Log is the follower's own WAL: every record is persisted locally
	// as it arrives, so promotion re-executes a durable tail.
	Log *wal.Log
}

// Follower is a warm standby for the aggregation tier: it logs the
// leader's replication stream and can promote into a serving Server
// when the leader dies.
type Follower struct {
	cfg       FollowerConfig
	state     *replicaState
	evaluator int
	watermark uint64
}

// NewFollower validates cfg and builds a follower.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Platforms <= 0 {
		return nil, fmt.Errorf("%w: %d platforms", ErrConfig, cfg.Platforms)
	}
	if cfg.Conn == nil {
		return nil, fmt.Errorf("%w: follower without a replication stream", ErrConfig)
	}
	if cfg.Log == nil {
		return nil, fmt.Errorf("%w: follower without a WAL", ErrConfig)
	}
	return &Follower{
		cfg:       cfg,
		state:     newReplicaState(cfg.Platforms),
		evaluator: -1,
	}, nil
}

// Run consumes the replication stream until it ends. A nil return
// means the stream closed after a complete bootstrap — the leader is
// gone (crashed or finished) and the follower is safe to promote. A
// non-nil return means the replica cannot be trusted (stream died
// before bootstrap, the leader computes on another architecture, or a
// record failed to decode).
func (f *Follower) Run() error {
	for {
		m, err := f.cfg.Conn.Recv()
		if err != nil {
			if f.state.base != nil {
				return nil
			}
			return fmt.Errorf("core: follower stream before bootstrap: %w", err)
		}
		switch m.Type {
		case wire.MsgReplBase:
			if err := f.persist(append([]byte{replKindBase}, m.Payload...)); err != nil {
				return err
			}
			ack := &wire.Message{Type: wire.MsgReplAck,
				Payload: wire.EncodeText(fmt.Sprintf("watermark=%d", f.watermark))}
			if err := f.cfg.Conn.Send(ack); err != nil {
				return fmt.Errorf("core: follower ack: %w", err)
			}
		case wire.MsgReplMeta:
			if err := f.adoptMeta(m.Payload); err != nil {
				return err
			}
		case wire.MsgReplRecord:
			if err := f.persist(m.Payload); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: %s on the replication stream", ErrProtocol, m.Type)
		}
	}
}

// adoptMeta installs the session facts the leader's bootstrap carries:
// the evaluator identity and the kernel fingerprint. A leader on
// another GOARCH is refused before any step record lands, since the
// follower could not re-execute its steps bit for bit.
func (f *Follower) adoptMeta(payload []byte) error {
	meta, err := wire.DecodeText(payload)
	if err != nil {
		return fmt.Errorf("core: follower meta: %w", err)
	}
	ints, arch, ok := strings.Cut(meta, ";goarch=")
	if !ok {
		return fmt.Errorf("%w: leader meta %q carries no kernel fingerprint", ErrConfig, meta)
	}
	if arch != runtime.GOARCH {
		return fmt.Errorf("%w: leader computes on %s, this follower on %s", ErrConfig, arch, runtime.GOARCH)
	}
	fields, err := parseMetaInts(ints, "evaluator")
	if err != nil {
		return err
	}
	f.evaluator = fields["evaluator"]
	return nil
}

// persist writes a record to the local WAL, then notes it. WAL first:
// the watermark must never run ahead of durable state. A base record
// compacts the log before it, as the leader's does.
func (f *Follower) persist(payload []byte) error {
	idx, err := f.cfg.Log.Append(payload)
	if err != nil {
		return fmt.Errorf("core: follower WAL append: %w", err)
	}
	if err := f.state.note(idx, payload); err != nil {
		return err
	}
	f.watermark = idx
	if f.state.baseIndex == idx {
		// A base subsumes every record before it.
		if err := f.cfg.Log.CompactBefore(idx); err != nil {
			return fmt.Errorf("core: follower WAL compaction: %w", err)
		}
	}
	return nil
}

// Watermark returns the WAL index of the last durably logged record.
func (f *Follower) Watermark() uint64 { return f.watermark }

// PromoteConfig configures a failover promotion.
type PromoteConfig struct {
	// Server is the configuration template for the promoted server —
	// the same knobs (Rounds, LabelSharing, Loss, L1SyncEvery,
	// EvalEvery, ClipGrads, LRSchedule, Codec) the dead leader ran, with
	// Back/Opt being the follower's own halves. Promotion re-executes
	// the log's tail on that Back and Opt, so every knob a server step
	// reads must match the leader's. StartRound, Mode and Staleness are
	// derived here and overwritten; Replication must be unset (chained
	// replication is out of scope).
	Server ServerConfig
	// Broker receives the platforms' redialed connections.
	Broker *RejoinBroker
	// Window bounds the wait for each platform to redial.
	Window time.Duration
}

// Promote turns the follower into a serving leader. It scans the
// follower's own WAL, derives the exact resume point, installs the
// last base and re-executes the steps recorded after it (see
// replayWAL), awaits every platform's rejoin through the broker,
// reconciles each one — replaying a cut-gradient payload the dead
// leader recorded but never delivered, when that is what a platform is
// missing — and returns the promoted server plus the adopted
// connections, ready for Serve. The training trajectory continues
// bit-identically: the differential failover tests compare final
// weight digests against an uninterrupted run.
func (f *Follower) Promote(pc PromoteConfig) (*Server, []transport.Conn, error) {
	if f.state.base == nil {
		return nil, nil, fmt.Errorf("%w: promoting before bootstrap", ErrReplica)
	}
	if pc.Broker == nil || pc.Window <= 0 {
		return nil, nil, fmt.Errorf("%w: promotion needs a broker and a positive window", ErrConfig)
	}
	if pc.Server.Replication != nil {
		return nil, nil, fmt.Errorf("%w: a promoted server cannot itself replicate", ErrConfig)
	}
	rs, err := scanWAL(f.cfg.Log, f.cfg.Platforms)
	if err != nil {
		return nil, nil, fmt.Errorf("core: promotion scan: %w", err)
	}
	round, done := rs.resumePoint()

	scfg := pc.Server
	scfg.StartRound = round
	scfg.Mode = RoundModeSequential
	scfg.Staleness = 0
	srv, err := NewServer(scfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: promoted server: %w", err)
	}
	if err := srv.replayWAL(f.cfg.Log, rs); err != nil {
		return nil, nil, fmt.Errorf("core: promotion replay: %w", err)
	}
	srv.promo = &promoState{
		evaluator: f.evaluator,
		round:     round,
		done:      done,
		state:     rs,
	}

	conns := make([]transport.Conn, f.cfg.Platforms)
	for k := 0; k < f.cfg.Platforms; k++ {
		offer := pc.Broker.await(k, pc.Window)
		if offer == nil {
			closeAll(conns)
			return nil, nil, fmt.Errorf("core: platform %d did not rejoin the promoted server within %v", k, pc.Window)
		}
		conn, aerr := adoptForPromotion(offer, k, rs)
		if aerr != nil {
			closeAll(conns)
			return nil, nil, aerr
		}
		conns[k] = conn
	}
	return srv, conns, nil
}

func closeAll(conns []transport.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// adoptForPromotion reconciles one platform's rejoin against the
// replayed record grammar. Exactly two shapes are legal:
//
//   - The platform announces the round of its last recorded step at
//     the cut-grad position: the leader recorded the step but the cut
//     gradient never arrived (it died between append and delivery, or
//     the delivery died with it). Ack that position and replay the
//     recorded payload; the platform finishes the round and arrives at
//     the promoted server's round naturally.
//   - The platform announces the round after its last recorded step:
//     it holds everything the chain holds. Ack (round, posActs); the
//     platform re-enters the round from the top, re-sending from its
//     stage cache, and the server — which never recorded the step —
//     recomputes it from bit-identical state.
//
// Anything else means the replica and the platform disagree about
// history: refuse loudly rather than train on divergent state.
func adoptForPromotion(offer *rejoinOffer, k int, rs *replicaState) (transport.Conn, error) {
	meta, err := wire.DecodeText(offer.rejoin.Payload)
	if err != nil {
		offer.conn.Close()
		return nil, fmt.Errorf("core: platform %d promotion rejoin meta: %w", k, err)
	}
	fields, err := parseMetaInts(meta, "next", "pos")
	if err != nil {
		offer.conn.Close()
		return nil, fmt.Errorf("core: platform %d promotion rejoin meta: %w", k, err)
	}
	pRound, pPos := fields["next"], fields["pos"]
	recorded := rs.lastRound[k]

	var ackPos int
	replayCut := false
	switch {
	case pRound == recorded && pPos == posCutGrad && rs.lastCut[k] != nil:
		ackPos = posCutGrad
		replayCut = true
	case pRound == recorded+1 && pPos >= posActs && pPos <= posDone:
		ackPos = posActs
	default:
		offer.conn.Close()
		return nil, fmt.Errorf("%w: platform %d rejoins promoted server at round %d pos %d, last recorded round %d",
			ErrProtocol, k, pRound, pPos, recorded)
	}
	ack := &wire.Message{
		Type:     wire.MsgRejoinAck,
		Platform: uint32(k),
		Round:    uint32(pRound),
		Payload:  wire.EncodeText(ackMeta(pRound, ackPos)),
	}
	if err := offer.conn.Send(ack); err != nil {
		offer.conn.Close()
		return nil, fmt.Errorf("core: platform %d promotion ack: %w", k, err)
	}
	if replayCut {
		replay := &wire.Message{
			Type:     wire.MsgCutGrad,
			Platform: uint32(k),
			Round:    uint32(pRound),
			Payload:  append([]byte(nil), rs.lastCut[k]...),
		}
		if err := offer.conn.Send(replay); err != nil {
			offer.conn.Close()
			return nil, fmt.Errorf("core: platform %d promotion cut replay: %w", k, err)
		}
	}
	return offer.conn, nil
}

// promoState carries what a promoted server must know about the round
// it resumes inside: which platforms the dead leader already stepped
// (their exchanges are skipped — the steps are in the replayed state),
// the evaluator identity the original handshake established, and the
// reconciliation bookkeeping to prime per-platform recovery caches.
type promoState struct {
	evaluator int
	round     int
	done      []bool
	state     *replicaState
}

// adoptPromotion replaces the handshake on a promoted server: the
// platforms were already validated by the original leader and
// reconciled during Promote; what remains is installing the session
// facts the handshake would have produced. (Re-execution already set
// each platform's last minibatch size.)
func (s *Server) adoptPromotion() {
	s.evaluator = s.promo.evaluator
	if s.cfg.Recovery != nil {
		// Prime the cut-replay caches so a platform that drops again
		// right after failover can still be replayed its last payload.
		_ = s.reg.each(func(k int, ps *platformState) error {
			if cut := s.promo.state.lastCut[k]; cut != nil {
				ps.lastCut = append([]byte(nil), cut...)
				ps.lastCutRound = s.promo.state.lastRound[k]
			}
			return nil
		})
	}
}
