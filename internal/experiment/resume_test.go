package experiment

import (
	"testing"

	"medsplit/internal/core"
)

// A RunSplit interrupted at a checkpoint and resumed in a fresh
// "process" (fresh models, data, samplers — everything rebuilt from
// the config, state restored from the snapshots) must land at exactly
// the same final accuracy as the uninterrupted run: the restored
// trajectory is bit-identical, so even the float comparison is exact.
func TestRunSplitResumeMatchesUninterrupted(t *testing.T) {
	full, err := RunSplit(fastCfg())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	seg1 := fastCfg()
	seg1.Rounds = 13 // interrupt at an "odd" round, mid eval interval
	seg1.CheckpointDir = dir
	seg1.CheckpointEvery = 13
	if _, err := RunSplit(seg1); err != nil {
		t.Fatal(err)
	}

	seg2 := fastCfg()
	seg2.ResumeFrom = dir
	res, err := RunSplit(seg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy != full.FinalAccuracy {
		t.Fatalf("resumed accuracy %v, uninterrupted %v", res.FinalAccuracy, full.FinalAccuracy)
	}
	// The resumed curve only covers resumed rounds, all past the cut.
	for _, p := range res.Curve.Points {
		if p.Round < 13 {
			t.Fatalf("resumed curve contains pre-checkpoint round %d", p.Round)
		}
	}

	// The snapshots carry the round counter.
	snap, err := core.LoadSnapshotFile(core.ServerSnapshotGenPath(dir, 13))
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextRound != 13 {
		t.Fatalf("server snapshot resumes at %d, want 13", snap.NextRound)
	}
}

// A staleness cap of 0 never pauses an exchange, so it takes
// checkpoints, and the checkpointed run lands on the uncheckpointed
// run's weights bit for bit.
func TestBoundedStalenessK0CheckpointsMatchSequential(t *testing.T) {
	seq, err := RunSplit(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	k0 := fastCfg()
	k0.Staleness = 0
	k0.CheckpointDir = t.TempDir()
	k0.CheckpointEvery = 5
	got, err := RunSplit(k0)
	if err != nil {
		t.Fatal(err)
	}
	if got.WeightDigest != seq.WeightDigest {
		t.Fatalf("K=0 with checkpoints digest %#x, sequential %#x", got.WeightDigest, seq.WeightDigest)
	}
}

// Config validation catches the cross-field mistakes table-driven.
func TestConfigValidationTable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"valid", nil, true},
		// A staleness cap staggers per-platform steps; concat fuses
		// them into one.
		{"concat and bounded staleness", func(c *Config) { c.Mode = core.RoundModeConcat; c.Staleness = 1 }, false},
		{"negative checkpoint every", func(c *Config) { c.CheckpointEvery = -3 }, false},
		{"checkpoint every without dir", func(c *Config) { c.CheckpointEvery = 4 }, false},
		{"checkpoint every with dir", func(c *Config) { c.CheckpointEvery = 4; c.CheckpointDir = t.TempDir() }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastCfg()
			cfg.Rounds = 2 // keep the valid arms fast
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			_, err := RunSplit(cfg)
			if tc.ok && err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}
