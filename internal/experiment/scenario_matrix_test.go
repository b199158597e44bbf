package experiment

import (
	"fmt"
	"testing"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/geonet"
	"medsplit/internal/simnet"
	"medsplit/internal/transport/testutil"
	"medsplit/internal/wire"
)

// matrixBase is the shared workload of the scenario matrix: small
// enough that the full mode × codec × fault sweep stays in test-suite
// territory, large enough that every protocol phase (train, eval) and
// codec path runs for real.
func matrixBase(topo *geonet.Topology, regions []geonet.Region) Config {
	return Config{
		Arch:         ArchMLP,
		Classes:      4,
		TrainSamples: 96,
		TestSamples:  24,
		Platforms:    3,
		Rounds:       6,
		TotalBatch:   12,
		EvalEvery:    6,
		Seed:         77,
		Topology:     topo,
		Regions:      regions,
	}
}

// matrixTopology is a 3-site slice of WAN parameter space: metro,
// regional and intercontinental links.
func matrixTopology() (*geonet.Topology, []geonet.Region) {
	topo := &geonet.Topology{
		Server: "seoul-dc",
		Links: map[geonet.Region]geonet.Link{
			"metro":    {LatencyMs: 2, Mbps: 1000},
			"regional": {LatencyMs: 12, Mbps: 200},
			"overseas": {LatencyMs: 95, Mbps: 100},
		},
	}
	return topo, []geonet.Region{"metro", "regional", "overseas"}
}

// TestScenarioMatrix is the end-to-end scenario sweep the simulated
// WAN exists for: {sequential, concat, bounded staleness, the splitfed
// preset} × {raw, f16, int8, top-k} × {no fault, mid-round dropout +
// rejoin}, each simnet run compared against its pipe-transport
// reference by weight digest — bit-identical training, regardless of
// link parameters, codec quantization or a recovered dropout. The
// relaxed modes hold the same cross-transport bar because their wave
// order is fixed, not arrival-driven. The dropout arms run under the
// sequential scheduler (the recovery machinery's constraint) with the
// WaitForRejoin policy, whose contract *is* bit-identity with the
// undisturbed run.
func TestScenarioMatrix(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	topo, regions := matrixTopology()

	modes := []struct {
		name      string
		mutate    func(*Config)
		canRejoin bool
	}{
		{"sequential", func(c *Config) {}, true},
		{"concat", func(c *Config) { c.Mode = core.RoundModeConcat }, false},
		{"stale-2", func(c *Config) { c.Staleness = 2 }, false},
		{"splitfed", func(c *Config) { c.Staleness = 2; c.L1SyncEvery = 2 }, false},
	}
	codecs := []string{"raw", "f16", "int8", "topk-0.5"}
	faults := []struct {
		name   string
		faults []simnet.Fault
		rejoin string
	}{
		{"no-fault", nil, ""},
		{"dropout-wait-rejoin", []simnet.Fault{
			{Platform: 1, Round: 3, Type: wire.MsgLossGrad, Dir: simnet.DirUp},
		}, "wait"},
		{"partition-wait-rejoin", []simnet.Fault{
			{Platform: 1, Round: 3, Type: wire.MsgActivations, Dir: simnet.DirUp},
			{Platform: 2, Round: 3, Type: wire.MsgActivations, Dir: simnet.DirUp, FailDials: 2},
		}, "wait"},
	}

	for _, mode := range modes {
		for _, codec := range codecs {
			// The pipe-transport reference run for this mode × codec cell.
			refCfg := matrixBase(nil, nil)
			refCfg.Codec = codec
			mode.mutate(&refCfg)
			ref, err := RunSplit(refCfg)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", mode.name, codec, err)
			}
			if ref.WeightDigest == 0 {
				t.Fatalf("%s/%s reference produced a zero weight digest", mode.name, codec)
			}
			for _, fault := range faults {
				if fault.rejoin != "" && !mode.canRejoin {
					continue // dropout recovery is sequential-only
				}
				name := fmt.Sprintf("%s/%s/%s", mode.name, codec, fault.name)
				t.Run(name, func(t *testing.T) {
					cfg := matrixBase(topo, regions)
					cfg.Codec = codec
					mode.mutate(&cfg)
					cfg.SimJitter = 0.2
					cfg.SimFaults = fault.faults
					cfg.SimRejoin = fault.rejoin
					res, err := RunSplit(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.WeightDigest != ref.WeightDigest {
						t.Fatalf("weights diverged from the pipe reference: digest %#x vs %#x",
							res.WeightDigest, ref.WeightDigest)
					}
					if res.SimElapsed <= 0 {
						t.Fatalf("simulated run reported no virtual elapsed time")
					}
					if res.FinalAccuracy != ref.FinalAccuracy {
						t.Fatalf("accuracy diverged: %v vs %v", res.FinalAccuracy, ref.FinalAccuracy)
					}
				})
			}
		}
	}
}

// The baselines run over the simulated WAN on the same code path as
// split: with a Topology (and jitter) they land on exactly the weights
// of the pipe run and measure a nonzero virtual time.
func TestBaselinesSimWANDigest(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	topo, regions := matrixTopology()
	for name, run := range map[string]Runner{"syncsgd": RunSyncSGD, "fedavg": RunFedAvg} {
		t.Run(name, func(t *testing.T) {
			ref, err := run(matrixBase(nil, nil))
			if err != nil {
				t.Fatalf("pipe reference: %v", err)
			}
			cfg := matrixBase(topo, regions)
			cfg.SimJitter = 0.2
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.WeightDigest == 0 || res.WeightDigest != ref.WeightDigest {
				t.Fatalf("simulated-WAN digest %#x, pipe digest %#x: want equal and non-zero",
					res.WeightDigest, ref.WeightDigest)
			}
			if ref.SimElapsed != 0 || res.SimElapsed <= 0 {
				t.Fatalf("SimElapsed %v over pipes and %v over the simulated WAN", ref.SimElapsed, res.SimElapsed)
			}
		})
	}
}

// The lockstep modes' virtual timelines are fully deterministic: the
// same config re-run yields the same SimElapsed to the nanosecond
// (weights are compared digest-for-digest too, though that holds in
// every mode).
func TestSimElapsedDeterministicLockstep(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	topo, regions := matrixTopology()
	for _, mode := range []core.RoundMode{core.RoundModeSequential, core.RoundModeConcat} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func() *Result {
				cfg := matrixBase(topo, regions)
				cfg.Mode = mode
				cfg.SimJitter = 0.3
				res, err := RunSplit(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.SimElapsed != b.SimElapsed {
				t.Fatalf("virtual timelines diverged: %v vs %v", a.SimElapsed, b.SimElapsed)
			}
			if a.WeightDigest != b.WeightDigest {
				t.Fatalf("weight digests diverged: %#x vs %#x", a.WeightDigest, b.WeightDigest)
			}
		})
	}
}

// Config validation for the simulation surface. A Topology selects the
// simulated WAN ("SimWAN" in the row names), so its knobs are refused
// without one. The round-mode rows are refused by core.NewServer, which
// RunSplit reaches before any training starts.
func TestSimWANConfigValidation(t *testing.T) {
	topo, regions := matrixTopology()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"SimWAN without topology", func(c *Config) { c.Topology = nil }},
		{"SimWAN with wrong region count", func(c *Config) { c.Regions = c.Regions[:1] }},
		{"jitter out of range", func(c *Config) { c.SimJitter = 1.5 }},
		{"faults without SimWAN", func(c *Config) {
			c.Topology = nil
			c.Regions = nil
			c.SimFaults = []simnet.Fault{{Platform: 0, Round: 1}}
		}},
		{"unknown rejoin policy", func(c *Config) { c.SimRejoin = "retry" }},
		{"rejoin with concat", func(c *Config) { c.SimRejoin = "wait"; c.Mode = core.RoundModeConcat }},
		{"rejoin with bounded staleness", func(c *Config) { c.SimRejoin = "wait"; c.Staleness = 1 }},
		{"negative staleness cap", func(c *Config) { c.Staleness = -1 }},
		{"splitfed with replicas", func(c *Config) {
			c.Staleness = 2
			c.L1SyncEvery = 2
			c.Replicas = 1
		}},
		{"compute profile without topology", func(c *Config) {
			c.Topology = nil
			c.Regions = nil
			c.SimCompute = []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond}
		}},
		{"compute profile wrong length", func(c *Config) { c.SimCompute = []time.Duration{time.Millisecond} }},
		{"negative platform compute", func(c *Config) {
			c.SimCompute = []time.Duration{time.Millisecond, -time.Millisecond, time.Millisecond}
		}},
		{"negative server compute", func(c *Config) { c.SimComputeServer = -time.Millisecond }},
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
	// The staleness cap is the one consistency knob: it needs no mode.
	t.Run("staleness cap without the mode", func(t *testing.T) {
		cfg := matrixBase(topo, regions)
		cfg.Staleness = 2
		if _, err := RunSplit(cfg); err != nil {
			t.Fatalf("staleness cap rejected: %v", err)
		}
	})
}
