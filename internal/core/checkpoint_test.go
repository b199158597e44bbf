package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"medsplit/internal/dataset"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// ---------------------------------------------------------------------------
// Container encode/decode

func sampleSnapshot() *Snapshot {
	a := tensor.New(2, 3)
	for i, v := range []float32{1, -2, 3.5, 0, 42, -0.125} {
		a.Data()[i] = v
	}
	b := tensor.New(4)
	return &Snapshot{
		Role:      RolePlatform,
		Platform:  3,
		NextRound: 9,
		Scalars:   []uint64{7, 0xdeadbeef, 1<<63 + 5},
		Tensors:   []*tensor.Tensor{a, b},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Role != want.Role || got.Platform != want.Platform || got.NextRound != want.NextRound {
		t.Fatalf("header %v/%d/%d, want %v/%d/%d", got.Role, got.Platform, got.NextRound, want.Role, want.Platform, want.NextRound)
	}
	if len(got.Scalars) != len(want.Scalars) {
		t.Fatalf("%d scalars, want %d", len(got.Scalars), len(want.Scalars))
	}
	for i := range want.Scalars {
		if got.Scalars[i] != want.Scalars[i] {
			t.Fatalf("scalar %d: %d, want %d", i, got.Scalars[i], want.Scalars[i])
		}
	}
	if len(got.Tensors) != len(want.Tensors) {
		t.Fatalf("%d tensors, want %d", len(got.Tensors), len(want.Tensors))
	}
	for i := range want.Tensors {
		if !tensor.SameShape(got.Tensors[i], want.Tensors[i]) {
			t.Fatalf("tensor %d shape %v, want %v", i, got.Tensors[i].Shape(), want.Tensors[i].Shape())
		}
		x, y := got.Tensors[i].Data(), want.Tensors[i].Data()
		for j := range y {
			if x[j] != y[j] {
				t.Fatalf("tensor %d scalar %d: %v, want %v", i, j, x[j], y[j])
			}
		}
	}
}

// refreshCRC recomputes the trailing checksum after a targeted body
// mutation, so structural validation (not just the CRC) is exercised.
func refreshCRC(b []byte) []byte {
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(body))
	return b
}

func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	mk := func() []byte { return EncodeSnapshot(sampleSnapshot()) }
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:8] }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-9] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return refreshCRC(b) }},
		{"bad role", func(b []byte) []byte { b[5] = 42; return refreshCRC(b) }},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)-12] ^= 0x01; return b }},
		{"scalar count overflow", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[14:], 0xffffff)
			return refreshCRC(b)
		}},
		{"tensor length mismatch", func(b []byte) []byte {
			// The tensor-block length prefix sits right after the scalars.
			off := 18 + 8*3
			binary.LittleEndian.PutUint32(b[off:], uint32(len(b)))
			return refreshCRC(b)
		}},
		{"garbage tensor block", func(b []byte) []byte {
			off := 18 + 8*3 + 4
			b[off] = 0xee
			return refreshCRC(b)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSnapshot(tc.mut(mk())); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("err = %v, want ErrBadSnapshot", err)
			}
		})
	}
}

// FuzzDecodeSnapshot hammers the decoder with arbitrary bytes: it must
// reject garbage with ErrBadSnapshot (never panic or over-allocate),
// and anything it accepts must re-encode to a decodable equivalent.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(EncodeSnapshot(sampleSnapshot()))
	f.Add(EncodeSnapshot(&Snapshot{Role: RoleServer}))
	f.Add(EncodeSnapshot(&Snapshot{Role: RolePlatform, NextRound: 1, Scalars: []uint64{0}}))
	f.Add([]byte("MSNP garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("non-sentinel decode error: %v", err)
			}
			return
		}
		s2, err := DecodeSnapshot(EncodeSnapshot(s))
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot failed to decode: %v", err)
		}
		if s2.Role != s.Role || s2.Platform != s.Platform || s2.NextRound != s.NextRound ||
			len(s2.Scalars) != len(s.Scalars) || len(s2.Tensors) != len(s.Tensors) {
			t.Fatal("round trip changed the snapshot")
		}
	})
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := ServerSnapshotPath(dir)
	want := sampleSnapshot()
	if err := SaveSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextRound != want.NextRound || len(got.Tensors) != len(want.Tensors) {
		t.Fatal("file round trip changed the snapshot")
	}
	if _, err := LoadSnapshotFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// bnHalf is a model half with both params and BatchNorm state, its
// statistics moved off their initialization by one training forward.
func bnHalf(in int, seed uint64) *nn.Sequential {
	r := rng.New(seed)
	net := nn.NewSequential("bn-half",
		nn.NewDense("fc1", in, 8, r),
		nn.NewBatchNorm("bn", 8),
		nn.NewTanh("tanh"),
		nn.NewDense("head", 8, 3, r),
	)
	x := tensor.New(16, in)
	x.FillNormal(rng.New(seed+1), 1, 2)
	net.Forward(x, true)
	return net
}

// RestoreModel is -load's weights-only restore from a -save file: the
// model half comes back bit-exact, weights and running statistics, for
// either role, and a file for another architecture or the other role
// is refused.
func TestRestoreModel(t *testing.T) {
	train, _ := testData(t, 3, 24, 8, 45)
	flat := flatten(train)
	in := flat.X.Dim(1)
	back, front := bnHalf(in, 1), bnHalf(in, 3)
	// Momentum puts optimizer tensors after the model's in the stream.
	momentum := func(c *ServerConfig) { c.Opt = &nn.Momentum{LR: 0.05, Mu: 0.9} }
	srvSnap := defaultServer(t, back, 1, 8, momentum).Snapshot(8)
	platSnap := defaultPlatform(t, 0, front, flat, 8, nil).Snapshot(8)

	dir := t.TempDir()
	cases := []struct {
		name    string
		src     *nn.Sequential // the half the snapshot was taken from
		snap    *Snapshot
		role    SnapshotRole
		into    *nn.Sequential
		wantErr bool
	}{
		{"server", back, srvSnap, RoleServer, bnHalf(in, 99), false},
		{"platform", front, platSnap, RolePlatform, bnHalf(in, 98), false},
		{"other architecture", back, srvSnap, RoleServer, bnHalf(in+1, 97), true},
		{"other role", front, platSnap, RoleServer, bnHalf(in, 96), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".ckpt")
			if err := SaveSnapshotFile(path, tc.snap); err != nil {
				t.Fatal(err)
			}
			snap, err := LoadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			err = RestoreModel(tc.into, snap, tc.role)
			if tc.wantErr {
				if !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("err = %v, want ErrBadSnapshot", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, got := appendModelTensors(nil, tc.src), appendModelTensors(nil, tc.into)
			for i := range want {
				if !tensor.AllClose(got[i], want[i], 0) {
					t.Fatalf("model tensor %d (weights, then running statistics) differs after restore", i)
				}
			}
			x := tensor.New(4, in)
			x.FillNormal(rng.New(7), 0, 1)
			if !tensor.AllClose(tc.src.Forward(x, false), tc.into.Forward(x, false), 0) {
				t.Fatal("restored model diverges")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Restore validation

func TestRestoreSnapshotValidation(t *testing.T) {
	train, _ := testData(t, 3, 60, 8, 41)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 211, flat.X.Dim(1), 3)
	srv := defaultServer(t, back, 1, 8, nil)
	plat := defaultPlatform(t, 0, front, flat, 8, nil)

	srvSnap := srv.Snapshot(0)
	platSnap := plat.Snapshot(0)

	if err := srv.RestoreSnapshot(platSnap); err == nil {
		t.Fatal("server accepted a platform snapshot")
	}
	if err := plat.RestoreSnapshot(srvSnap); err == nil {
		t.Fatal("platform accepted a server snapshot")
	}
	late := srv.Snapshot(5)
	if err := srv.RestoreSnapshot(late); err == nil {
		t.Fatal("server accepted a snapshot for a different start round")
	}
	wrongID := plat.Snapshot(0)
	wrongID.Platform = 7
	if err := plat.RestoreSnapshot(wrongID); err == nil {
		t.Fatal("platform accepted another platform's snapshot")
	}
	// Wrong architecture: tensor shapes must be validated. A different
	// hidden width changes both halves' shapes.
	m := models.MLP(flat.X.Dim(1), []int{16}, 3, rng.New(212))
	otherFront, otherBack, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	otherSrv := defaultServer(t, otherBack, 1, 8, nil)
	if err := otherSrv.RestoreSnapshot(srvSnap); err == nil {
		t.Fatal("server accepted a snapshot from a different architecture")
	}
	otherPlat := defaultPlatform(t, 0, otherFront, flat, 8, nil)
	if err := otherPlat.RestoreSnapshot(platSnap); err == nil {
		t.Fatal("platform accepted a snapshot from a different architecture")
	}
}

// ---------------------------------------------------------------------------
// The differential guarantee: checkpoint at round r + resume equals an
// uninterrupted run bit for bit.

type diffOpts struct {
	mode        RoundMode
	momentum    bool
	l1SyncEvery int
}

// diffRun builds a fresh 2-platform split session from fixed seeds and
// runs rounds [start, rounds). With ckptEvery > 0 it writes snapshots
// into dir; with resume it restores the whole session from dir first.
// Returns the final parameters (fronts then back).
func diffRun(t *testing.T, o diffOpts, rounds, start int, dir string, ckptEvery int, resume bool) [][]*nn.Param {
	t.Helper()
	const K = 2
	train, _ := testData(t, 4, 240, 60, 143)
	flat := flatten(train)
	in := flat.X.Dim(1)
	fronts, back := buildFronts(t, 611, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(144))

	mkOpt := func() nn.Optimizer {
		if o.momentum {
			return &nn.Momentum{LR: 0.05, Mu: 0.9}
		}
		return &nn.SGD{LR: 0.05}
	}
	srv, err := NewServer(ServerConfig{
		Back: back, Opt: mkOpt(), Platforms: K, Rounds: rounds, StartRound: start,
		Mode: o.mode, L1SyncEvery: o.l1SyncEvery,
		CheckpointEvery: ckptEvery, CheckpointDir: ckptDirFor(dir, ckptEvery, resume),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resume {
		snap, err := LoadLatestSnapshot(dir, RoleServer, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		p, err := NewPlatform(PlatformConfig{
			ID: k, Front: fronts[k], Opt: mkOpt(), Loss: nn.SoftmaxCrossEntropy{},
			Shard: flat.Subset(shards[k]), Batch: 8, Rounds: rounds, StartRound: start,
			L1SyncEvery: o.l1SyncEvery, Seed: uint64(500 + k),
			CheckpointEvery: ckptEvery, CheckpointDir: ckptDirFor(dir, ckptEvery, resume),
		})
		if err != nil {
			t.Fatal(err)
		}
		if resume {
			snap, err := LoadLatestSnapshot(dir, RolePlatform, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
		platforms[k] = p
	}
	if _, err := RunLocal(srv, platforms); err != nil {
		t.Fatal(err)
	}
	params := make([][]*nn.Param, 0, K+1)
	for k := 0; k < K; k++ {
		params = append(params, fronts[k].Params())
	}
	return append(params, back.Params())
}

// ckptDirFor passes the checkpoint directory only to the run that
// writes checkpoints (resumed runs read them via LoadSnapshotFile; the
// uninterrupted baseline writes nothing).
func ckptDirFor(dir string, every int, resume bool) string {
	if every > 0 {
		return dir
	}
	return ""
}

// A run checkpointed at round r and resumed must produce bit-identical
// weights to an uninterrupted run — for sequential and concat
// scheduling, with both stateless (SGD) and stateful (momentum)
// optimizers, across L1-sync boundaries.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const total, cut = 12, 7
	cases := []struct {
		name string
		o    diffOpts
	}{
		{"sequential", diffOpts{mode: RoundModeSequential}},
		{"concat", diffOpts{mode: RoundModeConcat}},
		{"sequential-momentum-l1sync", diffOpts{mode: RoundModeSequential, momentum: true, l1SyncEvery: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := diffRun(t, tc.o, total, 0, "", 0, false)

			dir := t.TempDir()
			// Segment 1: rounds [0, cut), snapshots written at the final
			// boundary (cut is a multiple of itself).
			_ = diffRun(t, tc.o, cut, 0, dir, cut, false)
			// Segment 2: fresh processes restore and run rounds [cut, total).
			resumed := diffRun(t, tc.o, total, cut, dir, 0, true)

			assertParamsBitIdentical(t, tc.name+" resumed vs uninterrupted", full, resumed)
		})
	}
}

// The checkpoint schedule writes at every due boundary, and the files
// carry the round counter a resume needs.
func TestCheckpointScheduleWritesNextRound(t *testing.T) {
	dir := t.TempDir()
	_ = diffRun(t, diffOpts{mode: RoundModeSequential}, 6, 0, dir, 3, false)
	snap, err := LoadSnapshotFile(ServerSnapshotGenPath(dir, 6))
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextRound != 6 {
		t.Fatalf("final server snapshot resumes at %d, want 6", snap.NextRound)
	}
	for k := 0; k < 2; k++ {
		ps, err := LoadSnapshotFile(PlatformSnapshotPath(dir, k))
		if err != nil {
			t.Fatal(err)
		}
		if ps.NextRound != 6 {
			t.Fatalf("platform %d snapshot resumes at %d, want 6", k, ps.NextRound)
		}
		if ps.Platform != k {
			t.Fatalf("platform snapshot carries id %d, want %d", ps.Platform, k)
		}
	}
}

// A graceful stop writes the final checkpoint and surfaces ErrStopped;
// a session resumed from it matches the uninterrupted run bit for bit.
func TestGracefulStopCheckpointsAndResumes(t *testing.T) {
	const total = 10
	full := diffRun(t, diffOpts{mode: RoundModeSequential}, total, 0, "", 0, false)

	// Interrupted run: the server is stopped before round 0 even starts
	// (the flag is checked at boundaries), so it trains some prefix of
	// rounds and checkpoints wherever it lands deterministically — here
	// we stop after the handshake by setting the flag immediately; the
	// first boundary (after round 0) honors it.
	const K = 2
	train, _ := testData(t, 4, 240, 60, 143)
	flat := flatten(train)
	in := flat.X.Dim(1)
	fronts, back := buildFronts(t, 611, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(144))
	dir := t.TempDir()
	srv, err := NewServer(ServerConfig{
		Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: K, Rounds: total,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop() // requested before serving: honored at the first boundary
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		p, err := NewPlatform(PlatformConfig{
			ID: k, Front: fronts[k], Opt: &nn.SGD{LR: 0.05}, Loss: nn.SoftmaxCrossEntropy{},
			Shard: flat.Subset(shards[k]), Batch: 8, Rounds: total, Seed: uint64(500 + k),
			CheckpointDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		platforms[k] = p
	}
	_, err = RunLocal(srv, platforms)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	// Stop/abort snapshots land in the stash files (the scheduled
	// checkpoint set stays untouched).
	snap, err := LoadSnapshotFile(ServerStashPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextRound != 1 {
		t.Fatalf("stop checkpointed at round %d, want 1 (first boundary)", snap.NextRound)
	}
	// The platforms saw the server's stop as a peer error mid-round 1
	// and wrote their round-1 boundary stashes.
	for k := 0; k < K; k++ {
		ps, err := LoadSnapshotFile(PlatformStashPath(dir, k))
		if err != nil {
			t.Fatalf("platform %d abort stash: %v", k, err)
		}
		if ps.NextRound != 1 {
			t.Fatalf("platform %d stash resumes at %d, want 1", k, ps.NextRound)
		}
	}

	resumed := diffRun(t, diffOpts{mode: RoundModeSequential}, total, 1, dir, 0, true)
	assertParamsBitIdentical(t, "graceful-stop resume vs uninterrupted", full, resumed)
}

// A mid-round abort must never destroy the last scheduled checkpoint
// set: abort stashes go to separate files, and LoadLatestSnapshot
// picks whichever is newer. Here the server "crashes" (a platform
// protocol violation kills the session) after the scheduled round-4
// checkpoints; the platforms' round-6 stashes must coexist with the
// intact round-4 scheduled set.
func TestAbortStashDoesNotClobberScheduledCheckpoint(t *testing.T) {
	const K = 2
	train, _ := testData(t, 4, 240, 60, 143)
	flat := flatten(train)
	in := flat.X.Dim(1)
	fronts, back := buildFronts(t, 611, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(144))
	dir := t.TempDir()

	srv, err := NewServer(ServerConfig{
		Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: K, Rounds: 20,
		CheckpointEvery: 4, CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		p, err := NewPlatform(PlatformConfig{
			ID: k, Front: fronts[k], Opt: &nn.SGD{LR: 0.05}, Loss: nn.SoftmaxCrossEntropy{},
			Shard: flat.Subset(shards[k]), Batch: 8, Rounds: 20, Seed: uint64(500 + k),
			CheckpointEvery: 4, CheckpointDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		platforms[k] = p
	}
	// Kill the session mid-round 6: platform 1's link dies while it
	// ships its loss gradients, no recovery configured.
	sConns := make([]transport.Conn, K)
	pConns := make([]transport.Conn, K)
	for k := 0; k < K; k++ {
		s, c := transport.Pipe()
		if k == 1 {
			c = severOn(wire.MsgLossGrad, 6)(c)
		}
		sConns[k], pConns[k] = s, c
	}
	var wg sync.WaitGroup
	wg.Add(K + 1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(sConns); err != nil {
			for _, c := range sConns {
				c.Close()
			}
		}
	}()
	for k := 0; k < K; k++ {
		k := k
		go func() {
			defer wg.Done()
			if _, err := platforms[k].Run(pConns[k]); err != nil {
				pConns[k].Close()
			}
		}()
	}
	wg.Wait()

	// Scheduled set: intact at round 4.
	for _, probe := range []struct {
		name string
		path string
		want int
	}{
		{"server scheduled", ServerSnapshotGenPath(dir, 4), 4},
		{"platform 0 scheduled", PlatformSnapshotPath(dir, 0), 4},
		{"platform 1 scheduled", PlatformSnapshotPath(dir, 1), 4},
		{"server stash", ServerStashPath(dir), 6},
		{"platform 1 stash", PlatformStashPath(dir, 1), 6},
	} {
		snap, err := LoadSnapshotFile(probe.path)
		if err != nil {
			t.Fatalf("%s: %v", probe.name, err)
		}
		if snap.NextRound != probe.want {
			t.Fatalf("%s resumes at %d, want %d", probe.name, snap.NextRound, probe.want)
		}
	}
	// LoadLatestSnapshot prefers the newer stash.
	latest, err := LoadLatestSnapshot(dir, RoleServer, 0)
	if err != nil {
		t.Fatal(err)
	}
	if latest.NextRound != 6 {
		t.Fatalf("latest server snapshot resumes at %d, want 6", latest.NextRound)
	}
}

// A checkpoint directory is settled when a party is constructed: a
// missing one is created, parents included, and one that cannot exist
// (its parent is a regular file) fails the constructor with ErrConfig
// naming it, instead of the session at its first scheduled checkpoint.
func TestCheckpointDirSettledAtConstruction(t *testing.T) {
	train, _ := testData(t, 4, 16, 4, 149)
	flat := flatten(train)
	fronts, back := buildFronts(t, 613, 1, flat.X.Dim(1), 4)
	root := t.TempDir()
	file := filepath.Join(root, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	parties := map[string]func(dir string) error{
		"server": func(dir string) error {
			_, err := NewServer(ServerConfig{
				Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: 1, Rounds: 4,
				CheckpointEvery: 2, CheckpointDir: dir,
			})
			return err
		},
		"platform": func(dir string) error {
			_, err := NewPlatform(PlatformConfig{
				ID: 0, Front: fronts[0], Opt: &nn.SGD{LR: 0.05}, Loss: nn.SoftmaxCrossEntropy{},
				Shard: flat, Batch: 4, Rounds: 4, CheckpointEvery: 2, CheckpointDir: dir,
			})
			return err
		},
	}
	for name, build := range parties {
		t.Run(name, func(t *testing.T) {
			missing := filepath.Join(root, name, "ck", "nested")
			if err := build(missing); err != nil {
				t.Fatalf("missing directory: %v", err)
			}
			if st, err := os.Stat(missing); err != nil || !st.IsDir() {
				t.Fatalf("missing directory not created: %v", err)
			}
			bad := filepath.Join(file, name)
			err := build(bad)
			if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), bad) {
				t.Fatalf("directory under a file: err = %v, want ErrConfig naming %q", err, bad)
			}
		})
	}
}
