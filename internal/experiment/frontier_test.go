package experiment

import (
	"os"
	"strings"
	"testing"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/geonet"
	"medsplit/internal/simnet"
	"medsplit/internal/transport/testutil"
	"medsplit/internal/wire"
)

// A trimmed frontier sweep must be deterministic cell for cell across
// two runs and produce a well-formed table. The full {100, 1000}
// sweep runs in TestConsistencyFrontierSoak (nightly).
func TestConsistencyFrontierSmoke(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fc := FrontierConfig{Scales: []int{5}, Rounds: 4, Seed: 23, TrainPerPlatform: 8}
	a, err := RunConsistencyFrontier(fc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConsistencyFrontier(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 15 { // 5 modes × 1 scale × 3 faults
		t.Fatalf("%d cells, want 15", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d diverged between runs:\n%+v\n%+v", i, a[i], b[i])
		}
		if a[i].WallClock <= 0 {
			t.Fatalf("cell %+v has no wall-clock", a[i])
		}
		if a[i].WeightDigest == 0 {
			t.Fatalf("cell %+v has a zero weight digest", a[i])
		}
		if a[i].FinalAccuracy < 0 || a[i].FinalAccuracy > 1 {
			t.Fatalf("cell %+v accuracy outside [0,1]", a[i])
		}
	}
	table := FrontierTable(a)
	for _, mode := range []string{"sequential", "stale-1", "stale-4", "stale-16", "splitfed"} {
		if !strings.Contains(table, mode) {
			t.Fatalf("table missing mode %s:\n%s", mode, table)
		}
	}
	// The point of the frontier: relaxing consistency buys wall-clock
	// under stragglers. Bounded staleness overlaps the straggler's slow
	// exchanges with everyone else's, so it must beat the sequential
	// schedule on the same scenario. (The splitfed preset is
	// deliberately absent here: its schedule overlaps the same way, but
	// its L1 sync also ships each platform's whole front half at every
	// averaging boundary, and at smoke scale that traffic dwarfs the
	// straggler saving — a tradeoff the frontier table is meant to
	// expose, not a regression.)
	byKey := func(cells []FrontierCell, mode, fault string) FrontierCell {
		for _, c := range cells {
			if c.Mode == mode && c.Fault == fault {
				return c
			}
		}
		t.Fatalf("no cell %s/%s", mode, fault)
		return FrontierCell{}
	}
	seq := byKey(a, "sequential", "stragglers")
	for _, mode := range []string{"stale-4", "stale-16"} {
		if c := byKey(a, mode, "stragglers"); c.WallClock >= seq.WallClock {
			t.Fatalf("%s (%v) not faster than sequential (%v) under stragglers",
				mode, c.WallClock, seq.WallClock)
		}
	}
}

// Every round mode's whole timeline — weights and virtual wall-clock —
// must reproduce bit for bit under fixed seeds even with a straggler
// compute profile and churn (transient delay spikes) injected. One
// protocol goroutine drives each simnet endpoint in every mode, so no
// mode is exempt.
func TestAllModesTwiceRunIdenticalUnderFaults(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const n = 8
	topo, regions := geonet.SyntheticClinics(n, 31)
	churn := []simnet.Fault{
		{Platform: 2, Round: 1, Type: wire.MsgLossGrad, Dir: simnet.DirUp,
			Kind: simnet.FaultDelaySpike, Delay: 150 * time.Millisecond},
		{Platform: 5, Round: 2, Type: wire.MsgActivations, Dir: simnet.DirUp,
			Kind: simnet.FaultDelaySpike, Delay: 150 * time.Millisecond},
	}
	modes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"sequential", func(c *Config) {}},
		{"concat", func(c *Config) { c.Mode = core.RoundModeConcat }},
		{"stale-2", func(c *Config) { c.Staleness = 2 }},
		{"splitfed", func(c *Config) { c.Staleness = 2; c.L1SyncEvery = 2 }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			run := func() *Result {
				cfg := Config{
					Arch:             ArchMLP,
					Classes:          4,
					TrainSamples:     96,
					TestSamples:      24,
					Platforms:        n,
					Rounds:           4,
					TotalBatch:       16,
					EvalEvery:        4,
					Seed:             31,
					Topology:         topo,
					Regions:          regions,
					SimJitter:        0.2,
					SimFaults:        churn,
					SimComputeServer: 2 * time.Millisecond,
					SimCompute:       geonet.SyntheticClinicCompute(n, 31, 5*time.Millisecond, 0.2),
				}
				mode.mutate(&cfg)
				res, err := RunSplit(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.WeightDigest != b.WeightDigest {
				t.Fatalf("weight digests diverged: %#x vs %#x", a.WeightDigest, b.WeightDigest)
			}
			if a.SimElapsed != b.SimElapsed {
				t.Fatalf("virtual timelines diverged: %v vs %v", a.SimElapsed, b.SimElapsed)
			}
			if a.SimElapsed <= 0 {
				t.Fatal("no virtual elapsed time measured")
			}
		})
	}
}

// With compute charges on, the measured elapsed grows, within the
// bounds the charges allow, and the weights do not move. Homogeneous
// compute on the default 5-hospital topology; the exact per-exchange
// agreement with a closed form is pinned down in simnet's
// TestComputeMatchesSequentialEstimatorPerHospital.
func TestSimElapsedIncludesCompute(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	topo := geonet.DefaultHospitalTopology()
	regions := []geonet.Region{"snuh-seoul", "pusan-nat-univ", "chungang-univ", "korea-univ", "ucf-orlando"}
	base := Config{
		Arch:         ArchMLP,
		Classes:      4,
		TrainSamples: 100,
		TestSamples:  20,
		Platforms:    5,
		Rounds:       4,
		TotalBatch:   10,
		EvalEvery:    4,
		Seed:         47,
		Topology:     topo,
		Regions:      regions,
	}
	plain, err := RunSplit(base)
	if err != nil {
		t.Fatal(err)
	}
	const serverC, platformC = 20 * time.Millisecond, 5 * time.Millisecond
	withC := base
	withC.SimComputeServer = serverC
	withC.SimCompute = []time.Duration{platformC, platformC, platformC, platformC, platformC}
	loaded, err := RunSplit(withC)
	if err != nil {
		t.Fatal(err)
	}
	// Measured elapsed grows, but not by the sum of every charge:
	// fast platforms' compute overlaps the slow site's in-flight
	// uploads (the server works while ucf-orlando's activations are
	// still crossing the WAN), so only critical-path charges extend
	// the clock. At minimum the slowest platform's exchange serializes
	// one server + one platform charge per round; at most every charge
	// lands on the path.
	grew := loaded.SimElapsed - plain.SimElapsed
	if grew < 4*(serverC+platformC) {
		t.Fatalf("measured elapsed grew %v, want at least one charge pair per round (%v): compute not folded into the virtual clock",
			grew, 4*(serverC+platformC))
	}
	if grew > 4*5*(serverC+platformC) {
		t.Fatalf("measured elapsed grew %v, more than every charge in the session (%v)",
			grew, 4*5*(serverC+platformC))
	}
	if loaded.WeightDigest != plain.WeightDigest {
		t.Fatalf("compute model changed the trained weights: %#x vs %#x",
			loaded.WeightDigest, plain.WeightDigest)
	}
}

// TestConsistencyFrontierSoak is the full-scale {100, 1000}-platform
// frontier sweep from the issue's acceptance bar. It takes minutes and
// real memory, so it only runs when FRONTIER_SOAK=1 (nightly CI);
// tier-1 covers the same code through the trimmed smoke sweep above.
func TestConsistencyFrontierSoak(t *testing.T) {
	if os.Getenv("FRONTIER_SOAK") == "" {
		t.Skip("set FRONTIER_SOAK=1 to run the full frontier sweep")
	}
	fc := FrontierConfig{Seed: 5}
	a, err := RunConsistencyFrontier(fc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConsistencyFrontier(fc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d diverged between runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	t.Logf("consistency frontier (%d cells):\n%s", len(a), FrontierTable(a))
}
