package nn_test

import (
	"errors"
	"path/filepath"
	"testing"

	"medsplit/internal/core"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// A model's checkpoint is the file -save writes: a core.Snapshot whose
// tensor stream starts with the weights, then the stateful buffers
// (BatchNorm statistics) that nn.CollectState finds. These tests hold
// an nn model to that file format: weights and running statistics come
// back bit-exact, and a file that does not fit the model is refused.

// bnModel is a model with both params and state.
func bnModel(seed uint64) *nn.Sequential {
	r := rng.New(seed)
	return nn.NewSequential("ckpt-model",
		nn.NewDense("fc1", 6, 8, r),
		nn.NewBatchNorm("bn", 8),
		nn.NewTanh("tanh"),
		nn.NewDense("head", 8, 3, r),
	)
}

// modelSnapshot frames net's weights and state as a server checkpoint.
func modelSnapshot(net *nn.Sequential) *core.Snapshot {
	var ts []*tensor.Tensor
	for _, p := range net.Params() {
		ts = append(ts, p.W)
	}
	ts = append(ts, nn.CollectState(net)...)
	return &core.Snapshot{Role: core.RoleServer, Tensors: ts}
}

// assertSameModel fails unless got holds want's weights and state bit
// for bit.
func assertSameModel(t *testing.T, want, got *nn.Sequential) {
	t.Helper()
	for i, p := range want.Params() {
		if !tensor.AllClose(p.W, got.Params()[i].W, 0) {
			t.Fatalf("param %d differs after restore", i)
		}
	}
	wantState, gotState := nn.CollectState(want), nn.CollectState(got)
	for i := range wantState {
		if !tensor.AllClose(wantState[i], gotState[i], 0) {
			t.Fatalf("state %d differs after restore", i)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := bnModel(1)
	// Move the state off its initialization.
	x := tensor.New(16, 6)
	x.FillNormal(rng.New(2), 1, 2)
	src.Forward(x, true)

	snap, err := core.DecodeSnapshot(core.EncodeSnapshot(modelSnapshot(src)))
	if err != nil {
		t.Fatal(err)
	}
	dst := bnModel(99) // different init
	if err := core.RestoreModel(dst, snap, core.RoleServer); err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, src, dst)
	// Restored model computes identically.
	if !tensor.AllClose(src.Forward(x, false), dst.Forward(x, false), 0) {
		t.Fatal("restored model diverges")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	src := bnModel(3)
	x := tensor.New(8, 6)
	x.FillNormal(rng.New(4), 1, 2)
	src.Forward(x, true)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := core.SaveSnapshotFile(path, modelSnapshot(src)); err != nil {
		t.Fatal(err)
	}
	snap, err := core.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dst := bnModel(77)
	if err := core.RestoreModel(dst, snap, core.RoleServer); err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, src, dst)
	if _, err := core.LoadSnapshotFile(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCheckpointRejectsMismatches(t *testing.T) {
	src := bnModel(4)
	good := core.EncodeSnapshot(modelSnapshot(src))
	snap, err := core.DecodeSnapshot(good)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong architecture (different widths).
	other := nn.NewSequential("other", nn.NewDense("fc", 6, 4, rng.New(5)))
	if err := core.RestoreModel(other, snap, core.RoleServer); !errors.Is(err, core.ErrBadSnapshot) {
		t.Fatalf("wrong arch: %v", err)
	}
	// Wrong role.
	if err := core.RestoreModel(bnModel(4), snap, core.RolePlatform); !errors.Is(err, core.ErrBadSnapshot) {
		t.Fatalf("wrong role: %v", err)
	}
	// Corrupt magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := core.DecodeSnapshot(bad); !errors.Is(err, core.ErrBadSnapshot) {
		t.Fatalf("bad magic: %v", err)
	}
	// Truncation.
	if _, err := core.DecodeSnapshot(good[:len(good)-5]); !errors.Is(err, core.ErrBadSnapshot) {
		t.Fatalf("truncated: %v", err)
	}
	// Trailing garbage.
	if _, err := core.DecodeSnapshot(append(append([]byte(nil), good...), 1, 2)); !errors.Is(err, core.ErrBadSnapshot) {
		t.Fatalf("trailing: %v", err)
	}
}
