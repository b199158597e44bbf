package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"medsplit/internal/atomicfile"
	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/wire"
)

// Checkpoint/restore for split-learning sessions. A Snapshot captures
// everything a party needs to resume training at a round boundary with
// a bit-identical trajectory: model weights and normalization state,
// optimizer state (momentum/Adam buffers), the RNG streams behind the
// minibatch sampler and data augmentation, the sampler's epoch
// permutation and cursor, and the session's round counter. The
// differential tests in checkpoint_test.go enforce the guarantee: a
// run checkpointed at round r and resumed equals an uninterrupted run
// scalar for scalar.
//
// Serialization goes through the existing binary layers: tensors use
// the wire tensor-payload encoding (wire.EncodeTensors), scalars are
// little-endian uint64 bit patterns, and the whole snapshot is framed
// with a magic, a version byte and a CRC-32 so corruption and version
// skew fail fast (table-driven rejection tests + FuzzDecodeSnapshot
// hammer the decoder).
//
// Layout (little-endian):
//
//	magic "MSNP" | version u8 | role u8 | platform u32 | nextRound u32 |
//	scalarCount u32 | scalars u64×n | tensorBytes u32 | tensor payload |
//	crc32 over everything before it

// ErrBadSnapshot reports an unreadable, corrupt or mismatched session
// snapshot.
var ErrBadSnapshot = errors.New("core: bad snapshot")

// SnapshotRole identifies which party a snapshot belongs to.
type SnapshotRole uint8

// Snapshot roles.
const (
	RoleServer SnapshotRole = iota + 1
	RolePlatform
)

// String names the role.
func (r SnapshotRole) String() string {
	switch r {
	case RoleServer:
		return "server"
	case RolePlatform:
		return "platform"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

var snapshotMagic = [4]byte{'M', 'S', 'N', 'P'}

const snapshotVersion = 1

// Snapshot is one party's complete training state at a round boundary.
// Tensors are deep copies: a snapshot stays valid while the live
// session trains on. The scalar stream's layout is role-specific and
// private to the capture/restore pair; the container only guarantees
// framing and integrity.
type Snapshot struct {
	Role      SnapshotRole
	Platform  int // platform id; 0 for the server
	NextRound int // first round the resumed session will execute
	Scalars   []uint64
	Tensors   []*tensor.Tensor
}

// EncodeSnapshot serializes s.
func EncodeSnapshot(s *Snapshot) []byte {
	tensorPayload := wire.EncodeTensors(s.Tensors...)
	size := 4 + 1 + 1 + 4 + 4 + 4 + 8*len(s.Scalars) + 4 + len(tensorPayload) + 4
	buf := make([]byte, 0, size)
	buf = append(buf, snapshotMagic[:]...)
	buf = append(buf, snapshotVersion, byte(s.Role))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Platform))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.NextRound))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Scalars)))
	for _, v := range s.Scalars {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tensorPayload)))
	buf = append(buf, tensorPayload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodeSnapshot parses a snapshot, validating framing, version, role
// and the CRC before touching any content.
func DecodeSnapshot(buf []byte) (*Snapshot, error) {
	const headerSize = 4 + 1 + 1 + 4 + 4 + 4
	if len(buf) < headerSize+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrBadSnapshot, len(buf))
	}
	if [4]byte{buf[0], buf[1], buf[2], buf[3]} != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if buf[4] != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadSnapshot, buf[4], snapshotVersion)
	}
	role := SnapshotRole(buf[5])
	if role != RoleServer && role != RolePlatform {
		return nil, fmt.Errorf("%w: unknown role %d", ErrBadSnapshot, buf[5])
	}
	body, crcBytes := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	s := &Snapshot{
		Role:      role,
		Platform:  int(binary.LittleEndian.Uint32(buf[6:])),
		NextRound: int(binary.LittleEndian.Uint32(buf[10:])),
	}
	rest := body[headerSize:]
	nScalars := int(binary.LittleEndian.Uint32(buf[14:]))
	if len(rest) < 8*nScalars+4 {
		return nil, fmt.Errorf("%w: %d scalars overflow %d bytes", ErrBadSnapshot, nScalars, len(rest))
	}
	if nScalars > 0 {
		s.Scalars = make([]uint64, nScalars)
		for i := range s.Scalars {
			s.Scalars[i] = binary.LittleEndian.Uint64(rest[8*i:])
		}
	}
	rest = rest[8*nScalars:]
	tensorBytes := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if tensorBytes != len(rest) {
		return nil, fmt.Errorf("%w: tensor block %d bytes, %d remain", ErrBadSnapshot, tensorBytes, len(rest))
	}
	ts, err := wire.DecodeTensors(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: tensor block: %v", ErrBadSnapshot, err)
	}
	s.Tensors = ts
	return s, nil
}

// SaveSnapshotFile writes a snapshot through the shared
// fsync-then-rename helper, so a crash mid-save never corrupts the
// previous checkpoint and the install survives a power cut.
func SaveSnapshotFile(path string, s *Snapshot) error {
	if err := atomicfile.WriteFile(path, EncodeSnapshot(s)); err != nil {
		return fmt.Errorf("core: saving snapshot: %w", err)
	}
	return nil
}

// LoadSnapshotFile reads and decodes a snapshot from disk.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	return DecodeSnapshot(buf)
}

// ServerSnapshotPath names the server's legacy single-slot
// scheduled-checkpoint file inside a checkpoint directory. New writes
// go to numbered generation files (ServerSnapshotGenPath); this path
// stays readable so checkpoint directories from before retained
// history still resume.
func ServerSnapshotPath(dir string) string { return filepath.Join(dir, "server.ckpt") }

// ServerSnapshotGenPath names one retained server checkpoint
// generation. The generation number is the snapshot's NextRound, so
// the filename states exactly which boundary it captures — and WAL
// compaction can anchor to any retained generation, not only the
// newest one.
func ServerSnapshotGenPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("server-%06d.ckpt", gen))
}

// serverSnapshotGens lists the retained generation numbers in dir,
// ascending. Unparsable lookalike names are ignored rather than fatal:
// a checkpoint directory is user-managed space.
func serverSnapshotGens(dir string) []int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var gens []int
	for _, e := range ents {
		var gen int
		if n, err := fmt.Sscanf(e.Name(), "server-%d.ckpt", &gen); n == 1 && err == nil {
			gens = append(gens, gen)
		}
	}
	sort.Ints(gens)
	return gens
}

// SaveServerSnapshotGen writes s as a numbered generation and prunes
// the oldest generations beyond retain (retain <= 0 keeps everything).
// The legacy single-slot file and the abort stash are never pruned.
func SaveServerSnapshotGen(dir string, s *Snapshot, retain int) error {
	if s.Role != RoleServer {
		return fmt.Errorf("%w: generation files hold server snapshots, got %s", ErrBadSnapshot, s.Role)
	}
	if err := SaveSnapshotFile(ServerSnapshotGenPath(dir, s.NextRound), s); err != nil {
		return err
	}
	if retain <= 0 {
		return nil
	}
	gens := serverSnapshotGens(dir)
	for len(gens) > retain {
		if err := os.Remove(ServerSnapshotGenPath(dir, gens[0])); err != nil {
			return fmt.Errorf("core: pruning snapshot generation %d: %w", gens[0], err)
		}
		gens = gens[1:]
	}
	return nil
}

// PlatformSnapshotPath names platform id's scheduled-checkpoint file
// inside a checkpoint directory.
func PlatformSnapshotPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("platform-%d.ckpt", id))
}

// Stop/abort writes land in separate stash files so they can never
// clobber the last scheduled checkpoint: a scheduled set is always a
// matched pair across parties (same CheckpointEvery schedule), while a
// stash records whatever boundary each party reached when the session
// died. Keeping them apart means a crash can only ADD information,
// never destroy the last known-good resumable set.

// ServerStashPath names the server's abort/stop snapshot file.
func ServerStashPath(dir string) string { return filepath.Join(dir, "server.stash.ckpt") }

// PlatformStashPath names platform id's abort/stop snapshot file.
func PlatformStashPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("platform-%d.stash.ckpt", id))
}

// LoadLatestSnapshot loads a party's most advanced snapshot from a
// checkpoint directory. For the server the candidate set is the legacy
// single-slot file, every retained numbered generation, and the abort
// stash; for platforms it is the scheduled checkpoint and the stash.
// The candidate with the highest NextRound wins, ties preferring the
// stash (matching the pre-generation behavior). Parties that all died
// in the same round agree on their stash boundaries, so independent
// processes resolving "latest" independently still converge; a
// genuinely mixed state surfaces as a start-round mismatch at the
// handshake instead of silent divergence.
func LoadLatestSnapshot(dir string, role SnapshotRole, platform int) (*Snapshot, error) {
	// Candidate paths in ascending preference: a later entry wins ties.
	var paths []string
	if role == RoleServer {
		paths = append(paths, ServerSnapshotPath(dir))
		for _, gen := range serverSnapshotGens(dir) {
			paths = append(paths, ServerSnapshotGenPath(dir, gen))
		}
		paths = append(paths, ServerStashPath(dir))
	} else {
		paths = append(paths, PlatformSnapshotPath(dir, platform), PlatformStashPath(dir, platform))
	}
	var best *Snapshot
	var firstErr error
	for _, p := range paths {
		s, err := LoadSnapshotFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || s.NextRound >= best.NextRound {
			best = s
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no snapshot for %s in %s: %v", role, dir, firstErr)
	}
	return best, nil
}

// cloneTensor deep-copies t.
func cloneTensor(t *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(t.Shape()...)
	out.CopyFrom(t)
	return out
}

// appendModelTensors appends deep copies of a model half's weights and
// stateful buffers (BatchNorm statistics).
func appendModelTensors(dst []*tensor.Tensor, net *nn.Sequential) []*tensor.Tensor {
	for _, p := range net.Params() {
		dst = append(dst, cloneTensor(p.W))
	}
	for _, st := range nn.CollectState(net) {
		dst = append(dst, cloneTensor(st))
	}
	return dst
}

// restoreModelTensors copies weights and stateful buffers back into a
// model half, consuming len(params)+len(state) tensors from ts.
func restoreModelTensors(net *nn.Sequential, ts []*tensor.Tensor) (rest []*tensor.Tensor, err error) {
	params := net.Params()
	state := nn.CollectState(net)
	if len(ts) < len(params)+len(state) {
		return nil, fmt.Errorf("%w: %d tensors for %d params + %d state", ErrBadSnapshot, len(ts), len(params), len(state))
	}
	for i, p := range params {
		if !tensor.SameShape(p.W, ts[i]) {
			return nil, fmt.Errorf("%w: param %q shape %v, want %v", ErrBadSnapshot, p.Name, ts[i].Shape(), p.W.Shape())
		}
	}
	for i, st := range state {
		if !tensor.SameShape(st, ts[len(params)+i]) {
			return nil, fmt.Errorf("%w: state %d shape %v, want %v", ErrBadSnapshot, i, ts[len(params)+i].Shape(), st.Shape())
		}
	}
	for i, p := range params {
		p.W.CopyFrom(ts[i])
	}
	for i, st := range state {
		st.CopyFrom(ts[len(params)+i])
	}
	return ts[len(params)+len(state):], nil
}

// RestoreModel copies a snapshot's model weights and stateful buffers
// (BatchNorm statistics) into net, the model half of the given role,
// ignoring everything else the snapshot holds: the optimizer state
// that follows the model in the tensor stream, the round counter and,
// for a platform, the sampler. It is the weights-only restore: a
// training run started from it gets a fresh optimizer at round 0, and
// the inference tier serves a checkpoint generation's weights from a
// back half with no optimizer attached.
func RestoreModel(net *nn.Sequential, snap *Snapshot, role SnapshotRole) error {
	if snap.Role != role {
		return fmt.Errorf("%w: restoring a %s snapshot into a %s model", ErrBadSnapshot, snap.Role, role)
	}
	_, err := restoreModelTensors(net, snap.Tensors)
	return err
}

// appendOptimizer appends an optimizer's captured state: the scalar
// count, its scalars, and its tensors.
func appendOptimizer(scalars []uint64, tensors []*tensor.Tensor, opt nn.Optimizer, params []*nn.Param) ([]uint64, []*tensor.Tensor) {
	st := nn.CaptureOptimizerState(opt, params)
	scalars = append(scalars, uint64(len(st.Scalars)))
	scalars = append(scalars, st.Scalars...)
	return scalars, append(tensors, st.Tensors...)
}

// scalarCursor reads a snapshot's scalar stream with bounds checking.
type scalarCursor struct {
	s []uint64
	i int
}

func (c *scalarCursor) next() (uint64, error) {
	if c.i >= len(c.s) {
		return 0, fmt.Errorf("%w: scalar stream exhausted at index %d", ErrBadSnapshot, c.i)
	}
	v := c.s[c.i]
	c.i++
	return v, nil
}

func (c *scalarCursor) take(n int) ([]uint64, error) {
	if n < 0 || c.i+n > len(c.s) {
		return nil, fmt.Errorf("%w: scalar stream needs %d more values, has %d", ErrBadSnapshot, n, len(c.s)-c.i)
	}
	out := c.s[c.i : c.i+n]
	c.i += n
	return out, nil
}

// appendRNG appends an RNG snapshot as three scalars.
func appendRNG(scalars []uint64, s rng.Snapshot) []uint64 {
	has := uint64(0)
	if s.HasCachedNorm {
		has = 1
	}
	return append(scalars, s.State, math.Float64bits(s.CachedNorm), has)
}

// readRNG reads an RNG snapshot written by appendRNG.
func readRNG(c *scalarCursor) (rng.Snapshot, error) {
	vals, err := c.take(3)
	if err != nil {
		return rng.Snapshot{}, err
	}
	return rng.Snapshot{
		State:         vals[0],
		CachedNorm:    math.Float64frombits(vals[1]),
		HasCachedNorm: vals[2] != 0,
	}, nil
}

// Snapshot captures the server's complete state: the back half's
// weights and normalization buffers, the optimizer state, and the
// round counter. nextRound is the first round a resumed session will
// execute (i.e. the number of completed rounds).
func (s *Server) Snapshot(nextRound int) *Snapshot {
	snap := &Snapshot{Role: RoleServer, NextRound: nextRound}
	snap.Tensors = appendModelTensors(nil, s.cfg.Back)
	snap.Scalars, snap.Tensors = appendOptimizer(snap.Scalars, snap.Tensors, s.cfg.Opt, s.cfg.Back.Params())
	return snap
}

// RestoreSnapshot installs a server snapshot. The server must have
// been constructed with ServerConfig.StartRound equal to the
// snapshot's NextRound, so the resumed schedule (LR decay, sync and
// eval rounds) continues where the checkpoint left off.
func (s *Server) RestoreSnapshot(snap *Snapshot) error {
	if snap.Role != RoleServer {
		return fmt.Errorf("%w: restoring a %s snapshot into a server", ErrBadSnapshot, snap.Role)
	}
	if snap.NextRound != s.cfg.StartRound {
		return fmt.Errorf("%w: snapshot resumes at round %d, server configured to start at %d",
			ErrBadSnapshot, snap.NextRound, s.cfg.StartRound)
	}
	ts, err := restoreModelTensors(s.cfg.Back, snap.Tensors)
	if err != nil {
		return err
	}
	cur := &scalarCursor{s: snap.Scalars}
	if err := restoreOptimizer(cur, ts, s.cfg.Opt, s.cfg.Back.Params()); err != nil {
		return err
	}
	return nil
}

// restoreOptimizer consumes the optimizer section: its scalar count
// was written first; the remaining tensors all belong to it.
func restoreOptimizer(cur *scalarCursor, ts []*tensor.Tensor, opt nn.Optimizer, params []*nn.Param) error {
	n, err := cur.next()
	if err != nil {
		return err
	}
	optScalars, err := cur.take(int(n))
	if err != nil {
		return err
	}
	st := nn.OptimizerState{Scalars: optScalars, Tensors: ts}
	if err := nn.RestoreOptimizerState(opt, params, st); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return nil
}

// Snapshot captures the platform's complete state: the front half's
// weights and normalization buffers, the optimizer state, the
// minibatch sampler (epoch permutation, cursor, RNG), and the
// augmentation RNG when configured.
func (p *Platform) Snapshot(nextRound int) *Snapshot {
	snap := &Snapshot{Role: RolePlatform, Platform: p.cfg.ID, NextRound: nextRound}
	ss := p.sampler.Snapshot()
	snap.Scalars = append(snap.Scalars, uint64(ss.Cursor), uint64(ss.Epoch))
	snap.Scalars = appendRNG(snap.Scalars, ss.RNG)
	snap.Scalars = append(snap.Scalars, uint64(len(ss.Indices)))
	for _, idx := range ss.Indices {
		snap.Scalars = append(snap.Scalars, uint64(idx))
	}
	if p.cfg.Augment != nil {
		snap.Scalars = append(snap.Scalars, 1)
		snap.Scalars = appendRNG(snap.Scalars, p.cfg.Augment.RNGSnapshot())
	} else {
		snap.Scalars = append(snap.Scalars, 0)
	}
	snap.Tensors = appendModelTensors(nil, p.cfg.Front)
	snap.Scalars, snap.Tensors = appendOptimizer(snap.Scalars, snap.Tensors, p.cfg.Opt, p.cfg.Front.Params())
	return snap
}

// RestoreSnapshot installs a platform snapshot. The platform must have
// been constructed with PlatformConfig.StartRound equal to the
// snapshot's NextRound and over the same shard (the sampler validates
// the index-set size).
func (p *Platform) RestoreSnapshot(snap *Snapshot) error {
	if snap.Role != RolePlatform {
		return fmt.Errorf("%w: restoring a %s snapshot into a platform", ErrBadSnapshot, snap.Role)
	}
	if snap.Platform != p.cfg.ID {
		return fmt.Errorf("%w: snapshot belongs to platform %d, this is platform %d", ErrBadSnapshot, snap.Platform, p.cfg.ID)
	}
	if snap.NextRound != p.cfg.StartRound {
		return fmt.Errorf("%w: snapshot resumes at round %d, platform configured to start at %d",
			ErrBadSnapshot, snap.NextRound, p.cfg.StartRound)
	}
	cur := &scalarCursor{s: snap.Scalars}
	cursor, err := cur.next()
	if err != nil {
		return err
	}
	epoch, err := cur.next()
	if err != nil {
		return err
	}
	rngSnap, err := readRNG(cur)
	if err != nil {
		return err
	}
	nIdx, err := cur.next()
	if err != nil {
		return err
	}
	idxVals, err := cur.take(int(nIdx))
	if err != nil {
		return err
	}
	indices := make([]int, len(idxVals))
	for i, v := range idxVals {
		indices[i] = int(v)
	}
	if err := p.sampler.Restore(dataset.SamplerSnapshot{
		Indices: indices, Cursor: int(cursor), Epoch: int(epoch), RNG: rngSnap,
	}); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	hasAug, err := cur.next()
	if err != nil {
		return err
	}
	if hasAug != 0 {
		augSnap, err := readRNG(cur)
		if err != nil {
			return err
		}
		if p.cfg.Augment == nil {
			return fmt.Errorf("%w: snapshot carries an augmentation RNG but the platform has no augmenter", ErrBadSnapshot)
		}
		p.cfg.Augment.RestoreRNG(augSnap)
	} else if p.cfg.Augment != nil {
		return fmt.Errorf("%w: platform has an augmenter but the snapshot has no augmentation RNG", ErrBadSnapshot)
	}
	ts, err := restoreModelTensors(p.cfg.Front, snap.Tensors)
	if err != nil {
		return err
	}
	return restoreOptimizer(cur, ts, p.cfg.Opt, p.cfg.Front.Params())
}
