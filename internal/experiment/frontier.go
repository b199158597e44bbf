package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"medsplit/internal/geonet"
	"medsplit/internal/simnet"
	"medsplit/internal/wire"
)

// FrontierConfig parameterizes the consistency frontier sweep.
type FrontierConfig struct {
	// Scales lists the platform counts to sweep (default {100, 1000}).
	Scales []int
	// Rounds per session (default 6).
	Rounds int
	// Seed pins the whole sweep: data, models, WAN, compute profiles
	// and fault scripts all derive from it.
	Seed uint64
	// BaseCompute is the typical per-platform front-half compute per
	// exchange (default 5ms); stragglers run at 8× this.
	BaseCompute time.Duration
	// ServerCompute is the back-half compute per exchange (default 2ms).
	ServerCompute time.Duration
	// TrainPerPlatform sizes the corpus at this many samples per
	// platform (default 2 — the sweep measures schedules, not model
	// quality).
	TrainPerPlatform int
}

func (fc FrontierConfig) withDefaults() FrontierConfig {
	if len(fc.Scales) == 0 {
		fc.Scales = []int{100, 1000}
	}
	if fc.Rounds == 0 {
		fc.Rounds = 6
	}
	if fc.BaseCompute == 0 {
		fc.BaseCompute = 5 * time.Millisecond
	}
	if fc.ServerCompute == 0 {
		fc.ServerCompute = 2 * time.Millisecond
	}
	if fc.TrainPerPlatform == 0 {
		fc.TrainPerPlatform = 2
	}
	return fc
}

// FrontierCell is one {mode × scale × fault} measurement of the
// accuracy-vs-wall-clock frontier.
type FrontierCell struct {
	Mode      string
	Platforms int
	Fault     string
	// FinalAccuracy is the session's last evaluation.
	FinalAccuracy float64
	// WallClock is the measured virtual elapsed time of the whole
	// session on the simulated WAN.
	WallClock time.Duration
	// WeightDigest fingerprints the trained weights (see
	// Result.WeightDigest) so frontier runs can be diffed bit for bit.
	WeightDigest uint64
}

// frontierModes are the consistency spectrum's sweep arms, from
// strictest to loosest coordination. "splitfed" is the preset that
// caps staleness at the L1-sync period.
func frontierModes() []struct {
	name   string
	mutate func(*Config)
} {
	return []struct {
		name   string
		mutate func(*Config)
	}{
		{"sequential", func(c *Config) {}},
		{"stale-1", func(c *Config) { c.Staleness = 1 }},
		{"stale-4", func(c *Config) { c.Staleness = 4 }},
		{"stale-16", func(c *Config) { c.Staleness = 16 }},
		{"splitfed", func(c *Config) { c.Staleness = 2; c.L1SyncEvery = 2 }},
	}
}

// frontierFaults returns the fault axis for one scale: the compute
// profile (homogeneous or with a straggler tail) plus an optional
// deterministic churn script of transient WAN delay spikes.
func frontierFaults(fc FrontierConfig, scale int) []struct {
	name    string
	compute []time.Duration
	faults  []simnet.Fault
} {
	churn := []simnet.Fault{}
	for _, p := range []int{scale / 4, scale / 2, (3 * scale) / 4} {
		for r := 1; r <= 2; r++ {
			churn = append(churn, simnet.Fault{
				Platform: p, Round: r, Type: wire.MsgLossGrad, Dir: simnet.DirUp,
				Kind: simnet.FaultDelaySpike, Delay: 200 * time.Millisecond,
			})
		}
	}
	return []struct {
		name    string
		compute []time.Duration
		faults  []simnet.Fault
	}{
		{"none", geonet.SyntheticClinicCompute(scale, fc.Seed, fc.BaseCompute, 0), nil},
		{"stragglers", geonet.SyntheticClinicCompute(scale, fc.Seed, fc.BaseCompute, 0.1), nil},
		{"churn", geonet.SyntheticClinicCompute(scale, fc.Seed, fc.BaseCompute, 0), churn},
	}
}

// RunConsistencyFrontier sweeps the consistency spectrum — sequential,
// bounded staleness at several caps, the splitfed preset — across
// platform scales and fault scenarios over the SyntheticClinics WAN
// with the heterogeneous compute model, and returns one cell per
// combination: the accuracy-vs-wall-clock frontier the relaxed modes
// exist to improve. Everything derives from FrontierConfig.Seed, so
// two sweeps with equal configs return identical cells (the soak test
// enforces this).
func RunConsistencyFrontier(fc FrontierConfig) ([]FrontierCell, error) {
	fc = fc.withDefaults()
	var cells []FrontierCell
	for _, scale := range fc.Scales {
		topo, regions := geonet.SyntheticClinics(scale, fc.Seed)
		for _, fault := range frontierFaults(fc, scale) {
			for _, mode := range frontierModes() {
				cfg := Config{
					Arch:             ArchMLP,
					Classes:          4,
					TrainSamples:     fc.TrainPerPlatform * scale,
					TestSamples:      48,
					Platforms:        scale,
					Rounds:           fc.Rounds,
					TotalBatch:       scale, // one sample per platform per round
					EvalEvery:        fc.Rounds,
					Seed:             fc.Seed,
					Topology:         topo,
					Regions:          regions,
					SimFaults:        fault.faults,
					SimComputeServer: fc.ServerCompute,
					SimCompute:       fault.compute,
				}
				mode.mutate(&cfg)
				res, err := RunSplit(cfg)
				if err != nil {
					return nil, fmt.Errorf("frontier %s/%d/%s: %w", mode.name, scale, fault.name, err)
				}
				cells = append(cells, FrontierCell{
					Mode:          mode.name,
					Platforms:     scale,
					Fault:         fault.name,
					FinalAccuracy: res.FinalAccuracy,
					WallClock:     res.SimElapsed,
					WeightDigest:  res.WeightDigest,
				})
			}
		}
	}
	return cells, nil
}

// FrontierTable renders the sweep as the accuracy-vs-wall-clock table.
func FrontierTable(cells []FrontierCell) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "mode\tplatforms\tfault\taccuracy\twall-clock\tdigest")
	for _, c := range cells {
		fmt.Fprintf(w, "%s\t%d\t%s\t%.3f\t%s\t%#x\n",
			c.Mode, c.Platforms, c.Fault, c.FinalAccuracy, c.WallClock.Round(time.Millisecond), c.WeightDigest)
	}
	w.Flush()
	return sb.String()
}
