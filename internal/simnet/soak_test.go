package simnet_test

import (
	"fmt"
	"testing"

	"medsplit/internal/experiment"
	"medsplit/internal/geonet"
	"medsplit/internal/transport/testutil"
)

// The scale-out soak: a 100-clinic split-learning session runs end to
// end over the simulated WAN — handshake, several training rounds, a
// final evaluation — with one server goroutine fanning into 100
// concurrent platform sessions. Under `go test -race` (the CI race job
// includes this package) it shakes data races out of the fan-in paths;
// the leak check asserts every session goroutine is joined on exit.
// Skipped with -short to keep quick iteration loops quick.
func TestSoak100PlatformSession(t *testing.T) {
	if testing.Short() {
		t.Skip("100-platform soak skipped in -short mode")
	}
	const clinics = 100
	topo, regions := geonet.SyntheticClinics(clinics, 23)

	arms := []struct {
		name   string
		mutate func(*experiment.Config)
	}{
		{"sequential", func(c *experiment.Config) {}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			cfg := experiment.Config{
				Arch:         experiment.ArchMLP,
				Classes:      4,
				TrainSamples: 2 * clinics,
				TestSamples:  40,
				Platforms:    clinics,
				Rounds:       3,
				TotalBatch:   2 * clinics,
				EvalEvery:    3,
				Seed:         19,
				Topology:     topo,
				Regions:      regions,
				SimJitter:    0.1,
			}
			arm.mutate(&cfg)
			res, err := experiment.RunSplit(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.SimElapsed <= 0 {
				t.Fatal("soak session reported no virtual elapsed time")
			}
			if res.TrainingBytes <= 0 {
				t.Fatal("soak session reported no training traffic")
			}
			t.Logf("%d clinics, %d rounds: %d training bytes, %v simulated elapsed, digest %#x",
				clinics, cfg.Rounds, res.TrainingBytes, res.SimElapsed, res.WeightDigest)
		})
	}
}

// A 100-platform sequential session is deterministic end to end: the
// soak's trajectory (weights and virtual timeline) reproduces exactly.
func TestSoak100PlatformDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("100-platform determinism check skipped in -short mode")
	}
	const clinics = 100
	topo, regions := geonet.SyntheticClinics(clinics, 23)
	run := func() *experiment.Result {
		cfg := experiment.Config{
			Arch:         experiment.ArchMLP,
			Classes:      4,
			TrainSamples: 2 * clinics,
			TestSamples:  40,
			Platforms:    clinics,
			Rounds:       2,
			TotalBatch:   2 * clinics,
			EvalEvery:    2,
			Seed:         19,
			Topology:     topo,
			Regions:      regions,
			SimJitter:    0.1,
		}
		res, err := experiment.RunSplit(cfg)
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
	if fmt.Sprintf("%v", a.Curve.Points) != fmt.Sprintf("%v", b.Curve.Points) {
		t.Fatal("evaluation curves diverged between identical runs")
	}
}
