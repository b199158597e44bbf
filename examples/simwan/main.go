// Simwan: the geo-WAN, executed instead of estimated. The paper's
// 5-hospital deployment (and a synthetic 100-clinic scale-out of it)
// trains end to end over internal/simnet — every protocol byte crosses
// a link with the site's latency and bandwidth on a deterministic
// virtual clock — and the measured virtual round time is printed next
// to the closed-form geonet estimate the earlier examples relied on.
//
//	go run ./examples/simwan                      # paper's 5 hospitals
//	go run ./examples/simwan -preset clinics      # 100 synthetic clinics
//	go run ./examples/simwan -clinics 25          # scale the clinic count
//	go run ./examples/simwan -mode concat         # one fused step per round
//	go run ./examples/simwan -drop-round 8        # drop a clinic mid-round, rejoin (wait policy)
//
// Runs are reproducible: the same flags print the same digest, bytes
// and virtual timeline, because link jitter is seeded and the clock is
// causal, not wall-time.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/experiment"
	"medsplit/internal/geonet"
	"medsplit/internal/simnet"
	"medsplit/internal/wire"
)

func main() {
	preset := flag.String("preset", "hospitals", "topology preset: hospitals (paper's 5 sites) or clinics (synthetic scale-out)")
	clinics := flag.Int("clinics", 100, "clinic count for -preset clinics")
	rounds := flag.Int("rounds", 12, "training rounds")
	mode := flag.String("mode", "sequential", "server round mode: sequential or concat")
	codec := flag.String("codec", "raw", "activation codec: raw, f16, int8, topk-<frac>")
	jitter := flag.Float64("jitter", 0.1, "seeded per-message jitter fraction in [0,1)")
	seed := flag.Uint64("seed", 42, "run seed (data, weights, jitter)")
	dropRound := flag.Int("drop-round", -1, "sever one platform's link at this round and rejoin (-1 = off; sequential mode only)")
	rejoin := flag.String("rejoin", "wait", "dropout policy with -drop-round: wait or proceed")
	flag.Parse()

	var topo *geonet.Topology
	var regions []geonet.Region
	switch *preset {
	case "hospitals":
		topo = geonet.DefaultHospitalTopology()
		regions = simnet.Regions(topo)
	case "clinics":
		topo, regions = geonet.SyntheticClinics(*clinics, *seed)
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	k := len(regions)

	cfg := experiment.Config{
		Arch:         experiment.ArchMLP,
		Classes:      4,
		TrainSamples: 8 * k,
		TestSamples:  4 * k,
		Platforms:    k,
		Rounds:       *rounds,
		TotalBatch:   4 * k,
		EvalEvery:    *rounds / 3,
		Seed:         *seed,
		Codec:        *codec,
		Topology:     topo,
		Regions:      regions,
		SimWAN:       true,
		SimJitter:    *jitter,
	}
	var err error
	if cfg.Mode, err = core.ParseRoundMode(*mode); err != nil {
		log.Fatal(err)
	}
	if *dropRound >= 0 {
		// Sever the highest-latency site — the link most likely to flap
		// in a real deployment.
		victim := 0
		for i, r := range regions {
			l, _ := topo.Link(r)
			if v, _ := topo.Link(regions[victim]); l.LatencyMs > v.LatencyMs {
				victim = i
			}
		}
		cfg.SimFaults = []simnet.Fault{
			{Platform: victim, Round: *dropRound, Type: wire.MsgLossGrad, Dir: simnet.DirUp},
		}
		cfg.SimRejoin = *rejoin
		fmt.Printf("fault script: sever %s's link while it uploads round %d loss gradients, policy %q\n\n",
			regions[victim], *dropRound, *rejoin)
	}

	fmt.Printf("=== simulated geo-WAN: %d platforms (%s), %d rounds, %s scheduling, %s codec ===\n\n",
		k, *preset, *rounds, *mode, *codec)
	start := time.Now()
	res, err := experiment.RunSplit(cfg)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	fmt.Printf("%-8s %-10s %-14s %s\n", "round", "accuracy", "train bytes", "virtual time")
	for _, pt := range res.Curve.Points {
		fmt.Printf("%-8d %-10.3f %-14d %v\n", pt.Round, pt.Accuracy, pt.Bytes, pt.SimTime)
	}
	fmt.Println()
	perRound := res.SimElapsed / time.Duration(*rounds)
	fmt.Printf("final accuracy      %.3f\n", res.FinalAccuracy)
	fmt.Printf("training bytes      %d\n", res.TrainingBytes)
	fmt.Printf("weight digest       %#x (same flags => same digest)\n", res.WeightDigest)
	fmt.Printf("virtual elapsed     %v (%v per round, measured by the simnet clock)\n", res.SimElapsed, perRound)
	fmt.Printf("analytic estimate   %v per round (geonet closed-form, zero compute)\n", res.RoundTime)
	fmt.Printf("real wall clock     %v — the WAN is simulated, not slept through\n", wall)
}
