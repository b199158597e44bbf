package medsplit

import (
	"testing"

	"medsplit/internal/experiment"
	"medsplit/internal/geonet"
	"medsplit/internal/simnet"
)

// BenchmarkSimnetRound measures full split-protocol rounds over the
// simulated geo-WAN at scale-out platform counts: the paper's
// 5-hospital topology, then synthetic 25- and 100-clinic deployments.
// ns/op is the real wall cost of simulating a session (the scheduler,
// codec and transport hot paths at fan-in scale); sim-ms/round is the
// virtual WAN time one synchronous round costs on that topology,
// measured by running the actual engine over simnet.
func BenchmarkSimnetRound(b *testing.B) {
	const rounds = 4
	for _, arm := range []struct {
		name      string
		platforms int
	}{
		{"platforms=5", 5},
		{"platforms=25", 25},
		{"platforms=100", 100},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var topo *geonet.Topology
			var regions []geonet.Region
			if arm.platforms == 5 {
				topo = geonet.DefaultHospitalTopology()
				regions = simnet.Regions(topo)
			} else {
				topo, regions = geonet.SyntheticClinics(arm.platforms, 23)
			}
			cfg := experiment.Config{
				Arch:         experiment.ArchMLP,
				Classes:      4,
				TrainSamples: 2 * arm.platforms,
				TestSamples:  20,
				Platforms:    arm.platforms,
				Rounds:       rounds,
				TotalBatch:   2 * arm.platforms,
				EvalEvery:    rounds,
				Seed:         19,
				Topology:     topo,
				Regions:      regions,
				SimJitter:    0.1,
			}
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
			b.ReportMetric(float64(last.TrainingBytes), "wire-bytes")
		})
	}
}
