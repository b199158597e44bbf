package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"medsplit/internal/tensor"
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
//   - A follower applies records into a materialized replica of the
//     server state and tracks a replication watermark (the WAL index
//     of the last applied record).
//   - On leader death the follower promotes: it replays its WAL tail,
//     derives the exact round/step the leader died at, opens a rejoin
//     window, and re-adopts every platform through the same
//     rejoin-handshake vocabulary the dropout-recovery path uses —
//     failover is a server-initiated rejoin in reverse.
//
// Record contents. A step record carries the optimizer scalars
// verbatim, the post-step state tensors as XOR deltas against the
// previous record's state, and the exact encoded cut-gradient payload
// the leader (re)sent. XOR of raw float32 bit patterns is exactly
// reversible because the tensor codec is bit-preserving
// (Float32bits/Float32frombits, no float64 round trip), so a replica
// that applies the chain lands on byte-identical state. The cut
// payload rides along because a platform that never received it cannot
// have it recomputed — by promotion time the replica has already
// stepped past the weights that produced it.
//
// Chain anchoring. The first WAL record is a full base snapshot; at
// every durable checkpoint generation the leader appends a fresh base
// record and compacts the log before it, so the log is always
// self-contained: replay = install the last base, XOR forward.
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

// stepRecord is one training step's replicated effect.
type stepRecord struct {
	round    int
	platform int
	batch    int  // minibatch rows (primes lastBatch for L1-sync weighting)
	lossFlag bool // cut payload carries the label-sharing loss scalar
	scalars  []uint64
	deltas   []*tensor.Tensor
	cut      []byte
}

// encodeStepRecord serializes a step record. Layout (little-endian):
//
//	kind u8 | round u32 | platform u32 | batch u32 | flags u8 |
//	scalarCount u32 | scalars u64×n |
//	deltaBytes u32 | delta tensor payload | cutBytes u32 | cut payload
//
// Integrity comes from the containers: WAL records and wire frames
// both carry CRC-32 over exactly these bytes.
func encodeStepRecord(rec *stepRecord) []byte {
	deltaPayload := wire.EncodeTensors(rec.deltas...)
	size := 1 + 4 + 4 + 4 + 1 + 4 + 8*len(rec.scalars) + 4 + len(deltaPayload) + 4 + len(rec.cut)
	buf := make([]byte, 0, size)
	buf = append(buf, replKindStep)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.round))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.platform))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.batch))
	var flags byte
	if rec.lossFlag {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.scalars)))
	for _, v := range rec.scalars {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(deltaPayload)))
	buf = append(buf, deltaPayload...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.cut)))
	return append(buf, rec.cut...)
}

// decodeStepRecord parses a step record (including its kind byte).
func decodeStepRecord(buf []byte) (*stepRecord, error) {
	const fixed = 1 + 4 + 4 + 4 + 1 + 4
	if len(buf) < fixed {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrReplica, len(buf))
	}
	if buf[0] != replKindStep {
		return nil, fmt.Errorf("%w: kind %d, want step", ErrReplica, buf[0])
	}
	rec := &stepRecord{
		round:    int(binary.LittleEndian.Uint32(buf[1:])),
		platform: int(binary.LittleEndian.Uint32(buf[5:])),
		batch:    int(binary.LittleEndian.Uint32(buf[9:])),
		lossFlag: buf[13]&1 != 0,
	}
	nScalars := int(binary.LittleEndian.Uint32(buf[14:]))
	rest := buf[fixed:]
	if nScalars < 0 || len(rest) < 8*nScalars+4 {
		return nil, fmt.Errorf("%w: %d scalars overflow %d bytes", ErrReplica, nScalars, len(rest))
	}
	if nScalars > 0 {
		rec.scalars = make([]uint64, nScalars)
		for i := range rec.scalars {
			rec.scalars[i] = binary.LittleEndian.Uint64(rest[8*i:])
		}
	}
	rest = rest[8*nScalars:]
	deltaBytes := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if deltaBytes < 0 || len(rest) < deltaBytes+4 {
		return nil, fmt.Errorf("%w: delta block %d bytes, %d remain", ErrReplica, deltaBytes, len(rest))
	}
	deltas, err := wire.DecodeTensors(rest[:deltaBytes])
	if err != nil {
		return nil, fmt.Errorf("%w: delta block: %v", ErrReplica, err)
	}
	rec.deltas = deltas
	rest = rest[deltaBytes:]
	cutBytes := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if cutBytes != len(rest) {
		return nil, fmt.Errorf("%w: cut block %d bytes, %d remain", ErrReplica, cutBytes, len(rest))
	}
	rec.cut = append([]byte(nil), rest...)
	return rec, nil
}

// xorInto XORs src's raw float32 bit patterns into dst in place.
// Applied twice it is the identity, which is the whole trick: delta =
// cur XOR prev on the leader, cur = prev XOR delta on the replica,
// byte-identical regardless of NaN payloads or denormals.
func xorInto(dst, src *tensor.Tensor) {
	d, s := dst.Data(), src.Data()
	for i := range d {
		d[i] = math.Float32frombits(math.Float32bits(d[i]) ^ math.Float32bits(s[i]))
	}
}

// xorDeltas returns cur's tensors XORed against prev's. Tensors cur
// has beyond prev (an optimizer lazily allocating momentum buffers on
// its first step) are deltas against implicit zero — their raw bits.
func xorDeltas(cur, prev []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(cur) < len(prev) {
		return nil, fmt.Errorf("%w: state shrank from %d to %d tensors", ErrReplica, len(prev), len(cur))
	}
	out := make([]*tensor.Tensor, len(cur))
	for i, c := range cur {
		d := c.Clone()
		if i < len(prev) {
			if !tensor.SameShape(c, prev[i]) {
				return nil, fmt.Errorf("%w: state tensor %d changed shape %v -> %v", ErrReplica, i, prev[i].Shape(), c.Shape())
			}
			xorInto(d, prev[i])
		}
		out[i] = d
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Leader side

// replicator is the leader's replication engine: WAL appends plus the
// follower streams. It lives on the session goroutine; no locking.
type replicator struct {
	log       *wal.Log
	followers []transport.Conn // dead entries are nil
	prev      []*tensor.Tensor // state as of the last appended record
	lastRound []int            // dedup: last round recorded per platform
}

func newReplicator(rc *ReplicationConfig, platforms int) *replicator {
	rp := &replicator{
		log:       rc.Log,
		followers: append([]transport.Conn(nil), rc.Followers...),
		lastRound: make([]int, platforms),
	}
	for k := range rp.lastRound {
		rp.lastRound[k] = -1
	}
	return rp
}

// start anchors the chain: append the full base snapshot to the WAL,
// then bootstrap every follower (base + session meta) and wait for
// each one's ack so a "warm" follower is provably warm before the
// first round trains. A follower that fails to bootstrap is dropped —
// durability comes from the WAL; followers only buy failover latency.
func (rp *replicator) start(s *Server) error {
	base := s.Snapshot(s.cfg.StartRound)
	baseBytes := EncodeSnapshot(base)
	if _, err := rp.log.Append(append([]byte{replKindBase}, baseBytes...)); err != nil {
		return fmt.Errorf("core: replication base append: %w", err)
	}
	rp.prev = base.Tensors
	meta := wire.EncodeText(fmt.Sprintf("evaluator=%d", s.evaluator))
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

// onStep records one completed training step, durably, before the
// caller sends the step's cut gradient. Re-entering the cut-grad wire
// stage after a platform drop calls this again with the same (r, k);
// the dedup guard keeps the step recorded exactly once, matching the
// compute-exactly-once contract of the stage machine.
func (rp *replicator) onStep(s *Server, k, r int, cut []byte) error {
	if rp.lastRound[k] == r {
		return nil
	}
	cur := s.Snapshot(r)
	deltas, err := xorDeltas(cur.Tensors, rp.prev)
	if err != nil {
		return err
	}
	payload := encodeStepRecord(&stepRecord{
		round:    r,
		platform: k,
		batch:    s.lastBatch[k],
		lossFlag: s.cfg.LabelSharing,
		scalars:  cur.Scalars,
		deltas:   deltas,
		cut:      cut,
	})
	if _, err := rp.log.Append(payload); err != nil {
		return fmt.Errorf("core: replication append round %d platform %d: %w", r, k, err)
	}
	rp.prev = cur.Tensors
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
// append a fresh base record and compact everything before it. The
// log stays self-contained (replay = last base + XOR forward) while
// its size tracks the checkpoint interval instead of the session
// length. Compaction is segment-granular, so some pre-base records may
// survive; replay handles that by letting a later base reset state.
func (rp *replicator) atCheckpoint(s *Server, completed int) error {
	base := s.Snapshot(completed)
	idx, err := rp.log.Append(append([]byte{replKindBase}, EncodeSnapshot(base)...))
	if err != nil {
		return fmt.Errorf("core: replication base at round %d: %w", completed, err)
	}
	rp.prev = base.Tensors
	if err := rp.log.CompactBefore(idx); err != nil {
		return fmt.Errorf("core: replication compaction at round %d: %w", completed, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Replica state

// replicaState is a materialized copy of the leader's server state
// plus the reconciliation bookkeeping promotion needs. Both the
// streaming follower and offline WAL replay build one.
type replicaState struct {
	snap      *Snapshot // tensors + optimizer scalars, live
	lastRound []int     // last recorded round per platform
	lastCut   [][]byte  // last cut payload per platform (replay on rejoin)
	lastLoss  []bool
	lastBatch []int
}

func newReplicaState(platforms int) *replicaState {
	rs := &replicaState{
		lastRound: make([]int, platforms),
		lastCut:   make([][]byte, platforms),
		lastLoss:  make([]bool, platforms),
		lastBatch: make([]int, platforms),
	}
	for k := range rs.lastRound {
		rs.lastRound[k] = -1
	}
	return rs
}

// applyBase installs a full snapshot, resetting the chain.
func (rs *replicaState) applyBase(snap *Snapshot) error {
	if snap.Role != RoleServer {
		return fmt.Errorf("%w: base snapshot role %s", ErrReplica, snap.Role)
	}
	rs.snap = snap
	for k := range rs.lastRound {
		rs.lastRound[k] = snap.NextRound - 1
		rs.lastCut[k] = nil
		rs.lastLoss[k] = false
	}
	return nil
}

// applyStep advances the replica by one step record.
func (rs *replicaState) applyStep(rec *stepRecord) error {
	if rs.snap == nil {
		return fmt.Errorf("%w: step record before any base", ErrReplica)
	}
	if rec.platform < 0 || rec.platform >= len(rs.lastRound) {
		return fmt.Errorf("%w: step for platform %d of %d", ErrReplica, rec.platform, len(rs.lastRound))
	}
	if len(rec.deltas) < len(rs.snap.Tensors) {
		return fmt.Errorf("%w: step carries %d deltas for %d state tensors", ErrReplica, len(rec.deltas), len(rs.snap.Tensors))
	}
	for i, d := range rec.deltas {
		if i < len(rs.snap.Tensors) {
			if !tensor.SameShape(d, rs.snap.Tensors[i]) {
				return fmt.Errorf("%w: delta %d shape %v, state %v", ErrReplica, i, d.Shape(), rs.snap.Tensors[i].Shape())
			}
			xorInto(rs.snap.Tensors[i], d)
		} else {
			// A tensor the optimizer allocated on this step: the delta is
			// the value itself (XOR against implicit zero).
			rs.snap.Tensors = append(rs.snap.Tensors, d)
		}
	}
	rs.snap.Scalars = rec.scalars
	rs.lastRound[rec.platform] = rec.round
	rs.lastCut[rec.platform] = rec.cut
	rs.lastLoss[rec.platform] = rec.lossFlag
	rs.lastBatch[rec.platform] = rec.batch
	return nil
}

// applyRecord dispatches a raw record (base or step).
func (rs *replicaState) applyRecord(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty record", ErrReplica)
	}
	switch payload[0] {
	case replKindBase:
		snap, err := DecodeSnapshot(payload[1:])
		if err != nil {
			return fmt.Errorf("%w: base record: %v", ErrReplica, err)
		}
		return rs.applyBase(snap)
	case replKindStep:
		rec, err := decodeStepRecord(payload)
		if err != nil {
			return err
		}
		return rs.applyStep(rec)
	default:
		return fmt.Errorf("%w: record kind %d", ErrReplica, payload[0])
	}
}

// ReplayWAL rebuilds the replicated server state from a log: install
// the bases, XOR the steps forward. This is both the follower's
// promotion path (replaying its own tail proves the durable copy, not
// just the in-memory one, is complete) and the leader-restart path
// (reopen the WAL, replay, resume).
func ReplayWAL(log *wal.Log, platforms int) (*replicaState, error) {
	rs := newReplicaState(platforms)
	err := log.Iterate(log.FirstIndex(), func(_ uint64, payload []byte) error {
		return rs.applyRecord(payload)
	})
	if err != nil {
		return nil, err
	}
	if rs.snap == nil {
		return nil, fmt.Errorf("%w: log holds no base record", ErrReplica)
	}
	return rs, nil
}

// RecoverServerState is the leader-restart entry point: replay a WAL
// directory's log into a server snapshot. nextRound on the returned
// snapshot is set to the round a restarted server must resume at (see
// Follower.Promote for the same derivation). Callers restore it into
// a fresh Server via RestoreSnapshot with a matching StartRound.
func RecoverServerState(log *wal.Log, platforms int) (*Snapshot, error) {
	rs, err := ReplayWAL(log, platforms)
	if err != nil {
		return nil, err
	}
	r, _ := rs.resumePoint()
	rs.snap.NextRound = r
	rs.snap.Role = RoleServer
	return rs.snap, nil
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
	// before it is applied, so promotion replays a durable tail.
	Log *wal.Log
}

// Follower is a warm standby for the aggregation tier: it applies the
// leader's replication stream into live state and can promote into a
// serving Server when the leader dies.
type Follower struct {
	cfg       FollowerConfig
	state     *replicaState
	evaluator int
	baseSeen  bool
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
// before bootstrap, or a record failed to decode or apply).
func (f *Follower) Run() error {
	for {
		m, err := f.cfg.Conn.Recv()
		if err != nil {
			if f.baseSeen {
				return nil
			}
			return fmt.Errorf("core: follower stream before bootstrap: %w", err)
		}
		switch m.Type {
		case wire.MsgReplBase:
			payload := append([]byte{replKindBase}, m.Payload...)
			if err := f.persistAndApply(payload); err != nil {
				return err
			}
			f.baseSeen = true
			ack := &wire.Message{Type: wire.MsgReplAck,
				Payload: wire.EncodeText(fmt.Sprintf("watermark=%d", f.watermark))}
			if err := f.cfg.Conn.Send(ack); err != nil {
				return fmt.Errorf("core: follower ack: %w", err)
			}
		case wire.MsgReplMeta:
			meta, derr := wire.DecodeText(m.Payload)
			if derr != nil {
				return fmt.Errorf("core: follower meta: %w", derr)
			}
			fields, perr := parseMetaInts(meta, "evaluator")
			if perr != nil {
				return perr
			}
			f.evaluator = fields["evaluator"]
		case wire.MsgReplRecord:
			if err := f.persistAndApply(m.Payload); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: %s on the replication stream", ErrProtocol, m.Type)
		}
	}
}

// persistAndApply writes a record to the local WAL, then applies it.
// WAL first: the watermark must never run ahead of durable state.
func (f *Follower) persistAndApply(payload []byte) error {
	idx, err := f.cfg.Log.Append(payload)
	if err != nil {
		return fmt.Errorf("core: follower WAL append: %w", err)
	}
	if err := f.state.applyRecord(payload); err != nil {
		return err
	}
	f.watermark = idx
	return nil
}

// Watermark returns the WAL index of the last durably applied record.
func (f *Follower) Watermark() uint64 { return f.watermark }

// PromoteConfig configures a failover promotion.
type PromoteConfig struct {
	// Server is the configuration template for the promoted server —
	// the same schedule knobs (Rounds, LabelSharing, Loss, L1SyncEvery,
	// EvalEvery, ClipGrads, LRSchedule, Codec) the dead leader ran, with
	// Back/Opt being the follower's own halves. StartRound, Mode and
	// Staleness are derived here and overwritten; Replication must be
	// unset (chained replication is out of scope).
	Server ServerConfig
	// Broker receives the platforms' redialed connections.
	Broker *RejoinBroker
	// Window bounds the wait for each platform to redial.
	Window time.Duration
}

// Promote turns the follower into a serving leader. It replays the
// follower's own WAL tail (proving the durable copy is complete),
// derives the exact resume point, awaits every platform's rejoin
// through the broker, reconciles each one — replaying a cut-gradient
// payload the dead leader recorded but never delivered, when that is
// what a platform is missing — and returns the promoted server plus
// the adopted connections, ready for Serve. The training trajectory
// continues bit-identically: the differential failover tests compare
// final weight digests against an uninterrupted run.
func (f *Follower) Promote(pc PromoteConfig) (*Server, []transport.Conn, error) {
	if !f.baseSeen {
		return nil, nil, fmt.Errorf("%w: promoting before bootstrap", ErrReplica)
	}
	if pc.Broker == nil || pc.Window <= 0 {
		return nil, nil, fmt.Errorf("%w: promotion needs a broker and a positive window", ErrConfig)
	}
	if pc.Server.Replication != nil {
		return nil, nil, fmt.Errorf("%w: a promoted server cannot itself replicate", ErrConfig)
	}
	rs, err := ReplayWAL(f.cfg.Log, f.cfg.Platforms)
	if err != nil {
		return nil, nil, fmt.Errorf("core: promotion replay: %w", err)
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
	rs.snap.Role = RoleServer
	rs.snap.NextRound = round
	if err := srv.RestoreSnapshot(rs.snap); err != nil {
		return nil, nil, fmt.Errorf("core: promotion restore: %w", err)
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
// facts the handshake would have produced.
func (s *Server) adoptPromotion() {
	s.evaluator = s.promo.evaluator
	copy(s.lastBatch, s.promo.state.lastBatch)
	if s.cfg.Recovery != nil {
		// Prime the cut-replay caches so a platform that drops again
		// right after failover can still be replayed its last payload.
		_ = s.reg.each(func(k int, ps *platformState) error {
			if cut := s.promo.state.lastCut[k]; cut != nil {
				ps.lastCut = append([]byte(nil), cut...)
				ps.lastCutRound = s.promo.state.lastRound[k]
				ps.lastCutLoss = s.promo.state.lastLoss[k]
			}
			return nil
		})
	}
}
