package medsplit

import (
	"testing"
	"time"

	"medsplit/internal/experiment"
	"medsplit/internal/geonet"
)

// BenchmarkConsistencyModes measures one straggler-loaded session per
// consistency mode over the simulated geo-WAN: 25 synthetic clinics,
// heterogeneous per-platform compute with a 10% straggler tail at 8×
// the base. ns/op is the real wall cost of simulating the session;
// sim-ms/round is the virtual wall-clock per round on that scenario —
// the quantity the consistency spectrum trades accuracy against (see
// experiment.RunConsistencyFrontier for the full sweep).
func BenchmarkConsistencyModes(b *testing.B) {
	const rounds, n = 4, 25
	topo, regions := geonet.SyntheticClinics(n, 23)
	compute := geonet.SyntheticClinicCompute(n, 23, 5*time.Millisecond, 0.1)
	modes := []struct {
		name   string
		mutate func(*experiment.Config)
	}{
		{"sequential", func(c *experiment.Config) {}},
		{"stale-k1", func(c *experiment.Config) { c.Staleness = 1 }},
		{"stale-k4", func(c *experiment.Config) { c.Staleness = 4 }},
		// The splitfed preset: a cap at the L1-sync period.
		{"splitfed", func(c *experiment.Config) { c.Staleness = 2; c.L1SyncEvery = 2 }},
	}
	for _, mode := range modes {
		b.Run("mode="+mode.name, func(b *testing.B) {
			cfg := experiment.Config{
				Arch:             experiment.ArchMLP,
				Classes:          4,
				TrainSamples:     2 * n,
				TestSamples:      20,
				Platforms:        n,
				Rounds:           rounds,
				TotalBatch:       2 * n,
				EvalEvery:        rounds,
				Seed:             19,
				Topology:         topo,
				Regions:          regions,
				SimWAN:           true,
				SimComputeServer: 2 * time.Millisecond,
				SimCompute:       compute,
			}
			mode.mutate(&cfg)
			var last *experiment.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunSplit(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.SimElapsed.Milliseconds())/rounds, "sim-ms/round")
			b.ReportMetric(last.FinalAccuracy, "accuracy")
		})
	}
}
