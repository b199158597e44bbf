// Hospitals: the paper's motivating scenario end to end — five
// geo-distributed medical platforms with imbalanced data volumes
// (a university hospital holds far more records than a clinic), the
// proportional-minibatch mitigation, and wall-clock measured over the
// simulated WAN of the geonet topology (the paper's future-work
// deployment names Seoul National University Hospital; the topology
// models that).
//
//	go run ./examples/hospitals
//
// Real WANs drop connections. With -kill-platform-at-round the example
// instead demonstrates dropout recovery over the in-process pipe
// transport: one hospital's link to the server is severed mid-round
// (while its loss gradients are in flight), the platform redials,
// replays the rejoin handshake with its protocol position, and the
// session completes — deterministically — under the chosen policy.
//
//	go run ./examples/hospitals -kill-platform-at-round 12
//	go run ./examples/hospitals -kill-platform-at-round 12 -rejoin-policy proceed
//
// Servers die too. With -kill-leader-at-round the aggregation tier
// runs replicated: the leader appends every step to a write-ahead log
// and streams it to a warm standby, the leader is killed mid-round
// over the simulated WAN, the standby promotes from its durable log,
// the hospitals redial into it, and the session finishes with weights
// bit-identical to an undisturbed run.
//
//	go run ./examples/hospitals -kill-leader-at-round 12
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/experiment"
	"medsplit/internal/geonet"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

func main() {
	killAt := flag.Int("kill-platform-at-round", -1, "sever one hospital's link mid-round at this round and recover (-1 = off)")
	policy := flag.String("rejoin-policy", "wait", "dropout policy: wait (bit-identical recovery) or proceed (skip the dead hospital)")
	killLeader := flag.Int("kill-leader-at-round", -1, "kill the aggregation server at this round and fail over to a warm standby (-1 = off)")
	flag.Parse()

	if *killLeader >= 0 {
		if err := runFailoverDemo(*killLeader); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *killAt >= 0 {
		if err := runDropoutDemo(*killAt, *policy); err != nil {
			log.Fatal(err)
		}
		return
	}
	runWANScenario()
}

// runFailoverDemo kills the aggregation server mid-round over the
// simulated WAN and lets a warm standby take over, then proves the
// failover was lossless by comparing final weight digests against the
// same session trained without the crash.
func runFailoverDemo(killAt int) error {
	const rounds = 30
	if killAt < 1 || killAt >= rounds {
		return fmt.Errorf("kill round %d out of range [1,%d)", killAt, rounds)
	}
	topo := geonet.DefaultHospitalTopology()
	regions := []geonet.Region{"snuh-seoul", "korea-univ", "ucf-orlando"}
	cfg := experiment.Config{
		Arch:         experiment.ArchMLP,
		Classes:      4,
		Width:        8,
		TrainSamples: 360,
		TestSamples:  90,
		Platforms:    len(regions),
		Rounds:       rounds,
		TotalBatch:   24,
		LR:           0.05,
		EvalEvery:    10,
		Seed:         7,
		Topology:     topo,
		Regions:      regions,
	}

	fmt.Printf("failover demo: %d hospitals over the simulated WAN, killing the leader at round %d\n",
		len(regions), killAt)
	fmt.Println("reference run (no crash, no replication)...")
	ref, err := experiment.RunSplit(cfg)
	if err != nil {
		return err
	}

	fmt.Println("replicated run: leader + 1 warm standby, leader killed mid-round...")
	cfg.Replicas = 1
	cfg.KillLeaderAt = killAt
	res, err := experiment.RunSplit(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("\n  reference weight digest %#016x\n", ref.WeightDigest)
	fmt.Printf("  failover  weight digest %#016x\n", res.WeightDigest)
	if res.WeightDigest != ref.WeightDigest {
		return fmt.Errorf("weights diverged after failover")
	}
	fmt.Printf("\nbit-identical: the standby promoted from its write-ahead log at the exact step\n")
	fmt.Printf("the dead leader recorded last; final accuracy %.1f%% in both runs\n", 100*res.FinalAccuracy)
	return nil
}

// runWANScenario is the original paper scenario: imbalanced shards,
// proportional minibatches, wall-clock measured over the simulated WAN.
func runWANScenario() {
	topo := geonet.DefaultHospitalTopology()
	regions := []geonet.Region{
		"snuh-seoul", "pusan-nat-univ", "chungang-univ", "korea-univ", "ucf-orlando",
	}
	cfg := experiment.Config{
		Arch:         experiment.ArchVGG,
		Classes:      10,
		Width:        4,
		TrainSamples: 600,
		TestSamples:  150,
		Platforms:    len(regions),
		Rounds:       50,
		TotalBatch:   40,
		Sharding:     experiment.ShardingPowerLaw,
		Alpha:        1.5, // strong imbalance: big teaching hospital, small clinics
		Proportional: true,
		EvalEvery:    10,
		LR:           0.03,
		Seed:         42,
		Topology:     topo,
		Regions:      regions,
	}

	shards, _, batches, err := experiment.BuildData(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("geo-distributed hospitals (power-law data imbalance, proportional minibatches):")
	for k, r := range regions {
		link, err := topo.Link(r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15s %4d records, batch %2d/round, %3.0fms to server at %4.0f Mbps\n",
			r, shards[k].Len(), batches[k], link.LatencyMs, link.Mbps)
	}

	res, err := experiment.RunSplit(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsplit training: %d model params, %v per round measured over the simulated WAN\n",
		res.ModelParams, res.SimElapsed/time.Duration(cfg.Rounds))
	fmt.Println(experiment.CurveTable(res))
	fmt.Printf("final accuracy %.1f%% after %v of simulated WAN time\n",
		100*res.FinalAccuracy, res.Curve.Final().SimTime)
}

// killerConn severs the link mid-round: when the platform ships the
// loss gradients of the configured round, the underlying pipe is
// closed (so the server's pending receive fails too) and the send
// errors — exactly what a WAN drop looks like to both ends.
type killerConn struct {
	transport.Conn
	round  int
	fired  bool
	onKill func()
}

func (c *killerConn) Send(m *wire.Message) error {
	if !c.fired && m.Type == wire.MsgLossGrad && int(m.Round) == c.round {
		c.fired = true
		c.Conn.Close()
		if c.onKill != nil {
			c.onKill()
		}
		return fmt.Errorf("hospitals: WAN link severed while sending loss gradients of round %d", c.round)
	}
	return c.Conn.Send(m)
}

// runDropoutDemo trains a three-hospital session over in-process pipes
// and kills one hospital's connection mid-round, demonstrating the
// rejoin protocol end to end.
func runDropoutDemo(killAt int, policyName string) error {
	const (
		K      = 3
		rounds = 30
		victim = 1
	)
	if killAt >= rounds {
		return fmt.Errorf("kill round %d out of range [0,%d)", killAt, rounds)
	}
	var policy core.RejoinPolicy
	switch policyName {
	case "wait":
		policy = core.WaitForRejoin
	case "proceed":
		policy = core.ProceedWithout
	default:
		return fmt.Errorf("unknown rejoin policy %q (want wait or proceed)", policyName)
	}

	cfg := experiment.Config{
		Arch:         experiment.ArchMLP,
		Classes:      4,
		Width:        8,
		TrainSamples: 360,
		TestSamples:  90,
		Noise:        0.35,
		Platforms:    K,
		Rounds:       rounds,
		TotalBatch:   24,
		Sharding:     experiment.ShardingIID,
		LR:           0.05,
		Seed:         7,
	}
	shards, test, batches, err := experiment.BuildData(cfg)
	if err != nil {
		return err
	}
	fronts := make([]*nn.Sequential, K)
	var back *nn.Sequential
	for k := 0; k <= K; k++ {
		m, err := experiment.BuildModel(cfg)
		if err != nil {
			return err
		}
		f, b, err := models.Split(m.Net, m.DefaultCut)
		if err != nil {
			return err
		}
		if k == K {
			back = b
		} else {
			fronts[k] = f
		}
	}

	broker := core.NewRejoinBroker()
	defer broker.Close()
	srv, err := core.NewServer(core.ServerConfig{
		Back:      back,
		Opt:       &nn.SGD{LR: cfg.LR},
		Platforms: K,
		Rounds:    rounds,
		ClipGrads: 5,
		EvalEvery: 10,
		Recovery:  &core.RecoveryConfig{Policy: policy, Window: 5 * time.Second, Broker: broker},
	})
	if err != nil {
		return err
	}

	fmt.Printf("dropout demo: %d hospitals, %d rounds, severing hospital %d's link at round %d (policy %v)\n\n",
		K, rounds, victim, killAt, policy)

	serverConns := make([]transport.Conn, K)
	platformConns := make([]transport.Conn, K)
	rejoins := 0
	platforms := make([]*core.Platform, K)
	for k := 0; k < K; k++ {
		s, c := transport.Pipe()
		serverConns[k] = s
		if k == victim {
			c = &killerConn{Conn: c, round: killAt, onKill: func() {
				fmt.Printf("  >> hospital %d lost its WAN link mid-round %d\n", victim, killAt)
			}}
		}
		platformConns[k] = c
		pc := core.PlatformConfig{
			ID:        k,
			Front:     fronts[k],
			Opt:       &nn.SGD{LR: cfg.LR},
			Loss:      nn.SoftmaxCrossEntropy{},
			Shard:     shards[k],
			Batch:     batches[k],
			Rounds:    rounds,
			ClipGrads: 5,
			EvalEvery: 10,
			Seed:      cfg.Seed + uint64(1000+k),
		}
		if k == 0 {
			pc.EvalData = test
		}
		if k == victim {
			pc.RejoinWindow = 5 * time.Second
			pc.Redial = func() (transport.Conn, error) {
				sEnd, cEnd := transport.Pipe()
				rejoins++
				fmt.Printf("  >> hospital %d redialing (attempt %d)\n", victim, rejoins)
				go func() {
					if err := broker.Offer(sEnd); err != nil {
						log.Println("hospitals: rejoin offer:", err)
					}
				}()
				return cEnd, nil
			}
		}
		p, err := core.NewPlatform(pc)
		if err != nil {
			return err
		}
		platforms[k] = p
	}

	stats := make([]*core.PlatformStats, K)
	errs := make([]error, K+1)
	var wg sync.WaitGroup
	wg.Add(K + 1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(serverConns); err != nil {
			errs[0] = fmt.Errorf("server: %w", err)
			for _, c := range serverConns {
				c.Close()
			}
		}
	}()
	for k := 0; k < K; k++ {
		k := k
		go func() {
			defer wg.Done()
			st, err := platforms[k].Run(platformConns[k])
			if err != nil {
				errs[k+1] = fmt.Errorf("hospital %d: %w", k, err)
				platformConns[k].Close()
				return
			}
			stats[k] = st
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	fmt.Println()
	for k, st := range stats {
		note := ""
		if k == victim {
			if policy == core.WaitForRejoin {
				note = "  (dropped, rejoined, bit-identical to an undisturbed run)"
			} else {
				note = fmt.Sprintf("  (dropped at round %d, rejoined; skipped rounds were trained without it)", killAt)
			}
		}
		fmt.Printf("hospital %d: %2d/%d rounds trained, final loss %.4f%s\n",
			k, len(st.Rounds), rounds, st.FinalLoss(), note)
	}
	for _, ev := range stats[0].Evals {
		if ev.Accuracy >= 0 {
			fmt.Printf("round %2d test accuracy %.1f%%\n", ev.Round, 100*ev.Accuracy)
		}
	}
	return nil
}
