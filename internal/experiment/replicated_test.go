package experiment

import (
	"os"
	"path/filepath"
	"testing"

	"medsplit/internal/core"
	"medsplit/internal/transport/testutil"
)

// Replication must be an observer: a run with warm followers streaming
// every step lands on exactly the weights of the same run without
// them, on the local transport and over the simulated WAN.
func TestReplicatedTransparent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	topo, regions := matrixTopology()

	ref, err := RunSplit(matrixBase(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, wan := range []bool{false, true} {
		name, cfg := "local", matrixBase(nil, nil)
		if wan {
			name, cfg = "simwan", matrixBase(topo, regions)
		}
		t.Run(name, func(t *testing.T) {
			cfg.Replicas = 1
			res, err := RunSplit(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.WeightDigest != ref.WeightDigest {
				t.Fatalf("replication perturbed training: digest %#x vs %#x",
					res.WeightDigest, ref.WeightDigest)
			}
		})
	}
}

// The headline failover property, end to end through the experiment
// layer: the leader is killed mid-round over the simulated WAN, a warm
// follower promotes and finishes the session, and the final weights
// are bit-identical to an undisturbed pipe-transport run. Swept over
// kill round, replica count, label sharing, L1 sync and a back half
// with BatchNorm.
func TestReplicatedFailoverDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("failover sweep is slow")
	}
	testutil.VerifyNoLeaks(t)
	topo, regions := matrixTopology()

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"kill-r2", func(c *Config) { c.KillLeaderAt = 2 }},
		{"kill-r4-two-replicas", func(c *Config) { c.KillLeaderAt = 4; c.Replicas = 2 }},
		{"kill-r3-label-sharing", func(c *Config) { c.KillLeaderAt = 3; c.LabelSharing = true }},
		{"kill-r2-l1sync", func(c *Config) { c.KillLeaderAt = 2; c.L1SyncEvery = 2 }},
		// BatchNorm running statistics live in the ResNet back half, so
		// promotion's re-execution must run the forward in training mode.
		{"kill-r3-resnet", func(c *Config) { c.KillLeaderAt = 3; c.Arch = ArchResNet }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The undisturbed reference: same schedule, no WAN, no
			// replication, no kill.
			refCfg := matrixBase(nil, nil)
			tc.mutate(&refCfg)
			refCfg.KillLeaderAt = 0
			refCfg.Replicas = 0
			ref, err := RunSplit(refCfg)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}

			cfg := matrixBase(topo, regions)
			cfg.Replicas = 1
			cfg.SimJitter = 0.2
			tc.mutate(&cfg)
			res, err := RunSplit(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.WeightDigest != ref.WeightDigest {
				t.Fatalf("failover diverged from the undisturbed run: digest %#x vs %#x",
					res.WeightDigest, ref.WeightDigest)
			}
			if res.FinalAccuracy != ref.FinalAccuracy {
				t.Fatalf("accuracy diverged: %v vs %v", res.FinalAccuracy, ref.FinalAccuracy)
			}
		})
	}
}

// A user-supplied WALDir keeps the logs: after a killed-leader run the
// leader and follower WAL directories must both hold segments.
func TestReplicatedWALDirKept(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	topo, regions := matrixTopology()
	dir := t.TempDir()

	cfg := matrixBase(topo, regions)
	cfg.Replicas = 1
	cfg.KillLeaderAt = 2
	cfg.WALDir = dir
	if _, err := RunSplit(cfg); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"leader", "follower-0"} {
		ents, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatalf("%s WAL directory: %v", sub, err)
		}
		if len(ents) == 0 {
			t.Fatalf("%s WAL directory is empty", sub)
		}
	}
}

// Config validation for the replication surface.
func TestReplicatedConfigValidation(t *testing.T) {
	topo, regions := matrixTopology()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative replicas", func(c *Config) { c.Replicas = -1 }},
		{"replicas with concat", func(c *Config) { c.Replicas = 1; c.Mode = core.RoundModeConcat }},
		{"waldir without replicas", func(c *Config) { c.WALDir = "somewhere" }},
		{"kill without replicas", func(c *Config) { c.KillLeaderAt = 2 }},
		{"kill without simwan", func(c *Config) {
			c.Topology = nil
			c.Regions = nil
			c.Replicas = 1
			c.KillLeaderAt = 2
		}},
		{"kill at round zero", func(c *Config) {
			c.Replicas = 1
			c.KillLeaderAt = -1
		}},
		{"kill past last round", func(c *Config) {
			c.Replicas = 1
			c.KillLeaderAt = 6
		}},
		{"kill with rejoin", func(c *Config) {
			c.Replicas = 1
			c.KillLeaderAt = 2
			c.SimRejoin = "wait"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := matrixBase(topo, regions)
			tc.mutate(&cfg)
			if _, err := RunSplit(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// A killed leader with a follower behind it must still report per-round
// stats and a virtual timeline, and the run must be repeatable: the
// same failover config twice lands on the same digest.
func TestReplicatedFailoverDeterministic(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	topo, regions := matrixTopology()
	run := func() *Result {
		cfg := matrixBase(topo, regions)
		cfg.Replicas = 1
		cfg.KillLeaderAt = 3
		res, err := RunSplit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.WeightDigest != b.WeightDigest {
		t.Fatalf("failover digests diverged across identical runs: %#x vs %#x",
			a.WeightDigest, b.WeightDigest)
	}
	if a.SimElapsed <= 0 {
		t.Fatal("failover run reported no virtual elapsed time")
	}
}
