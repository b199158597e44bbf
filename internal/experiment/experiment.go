// Package experiment wires datasets, models, the split-learning engine
// and the baselines into reproducible end-to-end runs, and regenerates
// the paper's evaluation artifacts: the Fig. 4 communication/accuracy
// comparison (measured, on the scaled-down trainable models) and the
// data-imbalance ablation behind the proportional-minibatch proposal.
package experiment

import (
	"fmt"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/dataset"
	"medsplit/internal/geonet"
	"medsplit/internal/metrics"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/simnet"
)

// Arch selects the trainable model family.
type Arch string

// Architectures available to experiments.
const (
	ArchMLP    Arch = "mlp"
	ArchVGG    Arch = "vgg-lite"
	ArchResNet Arch = "resnet-lite"
)

// Sharding selects how training data is distributed across platforms.
type Sharding string

// Sharding strategies.
const (
	ShardingIID       Sharding = "iid"
	ShardingPowerLaw  Sharding = "powerlaw"
	ShardingDirichlet Sharding = "dirichlet"
)

// Config describes one training run (any scheme).
type Config struct {
	// Arch picks the model family (default ArchVGG).
	Arch Arch
	// Classes is the label count (10 or 100 in the paper's evaluation).
	Classes int
	// Width scales the model (channel width; default 8).
	Width int
	// TrainSamples / TestSamples size the synthetic corpus.
	TrainSamples, TestSamples int
	// Noise is the dataset difficulty knob (default 0.35).
	Noise float32
	// Platforms is the number of hospitals (k).
	Platforms int
	// Rounds is the number of synchronous training rounds.
	Rounds int
	// TotalBatch is the per-round sample budget across all platforms.
	TotalBatch int
	// Proportional applies the paper's imbalance mitigation: batch
	// sizes proportional to shard sizes. Otherwise batches are uniform.
	Proportional bool
	// Sharding picks the data distribution (default IID).
	Sharding Sharding
	// Alpha parameterizes power-law or Dirichlet sharding.
	Alpha float64
	// LR is the SGD learning rate (default 0.05).
	LR float32
	// LocalSteps applies to FedAvg only (default 1).
	LocalSteps int
	// EvalEvery measures accuracy every so many rounds (default
	// Rounds/5, at least 1).
	EvalEvery int
	// Seed makes the whole run reproducible.
	Seed uint64
	// Cut overrides the model's default split point (layer index; 0 =
	// the model's DefaultCut, i.e. the paper's first-hidden-layer cut).
	// Split scheme only.
	Cut int
	// LabelSharing switches the split protocol to the 2-message
	// label-sharing ablation.
	LabelSharing bool
	// L1SyncEvery periodically averages platform L1 weights through the
	// server (0 = the paper's default of init-only synchronization).
	L1SyncEvery int
	// Mode is the server's round mode (zero means sequential); which
	// other settings each mode accepts is core.NewServer's decision.
	// Split scheme only; the parameter-exchange runners reject any
	// non-zero Mode or Staleness.
	Mode core.RoundMode
	// Staleness is the bounded-staleness cap K: an exchange may miss at
	// most K rounds of the other platforms' updates (see
	// core.ServerConfig.Staleness). 0 is sequential's lockstep; K >=
	// L1SyncEvery is the SplitFed-style preset. Not with concat.
	Staleness int
	// Codec names the activation-path compression codec ("raw", "f16",
	// "int8", "topk-<frac>"; default "raw"). Split scheme only.
	Codec string
	// CheckpointDir, when set, makes every party (server and all
	// platforms) write session snapshots there. Split scheme only.
	CheckpointDir string
	// CheckpointEvery writes snapshots every so many completed rounds
	// (requires CheckpointDir). Negative values are rejected.
	CheckpointEvery int
	// ResumeFrom, when set, restores the whole session — server and
	// every platform — from the snapshots in the given directory (a
	// previous run's CheckpointDir) and continues training from the
	// checkpointed round. The resumed trajectory is bit-identical to an
	// uninterrupted run for sequential and concat scheduling. Split
	// scheme only.
	ResumeFrom string
	// Augment enables platform-local random crop (pad 4) and horizontal
	// flip on training minibatches. Split scheme, image models only.
	Augment bool
	// Topology, when set with Regions, adds simulated wall-clock
	// estimates to the result curves.
	Topology *geonet.Topology
	// Regions maps each platform to a topology region.
	Regions []geonet.Region
	// SimWAN runs the split session over the deterministic simulated
	// WAN (internal/simnet) built from Topology and Regions instead of
	// in-process pipes: every protocol byte crosses a link with the
	// region's latency and bandwidth on a virtual clock, and the result
	// carries the measured virtual elapsed time (Result.SimElapsed)
	// next to the analytic estimate (Result.RoundTime). Split scheme
	// only; requires Topology and Regions.
	SimWAN bool
	// SimJitter adds up to this fraction of seeded per-message jitter
	// to simulated transfers (see simnet.Options.Jitter). Requires
	// SimWAN.
	SimJitter float64
	// SimComputeServer charges the simulated server this much back-half
	// compute (forward+backward+step) per received activations message,
	// and folds the same duration into the analytic round-time
	// estimators. Requires Topology.
	SimComputeServer time.Duration
	// SimCompute is the per-platform front-half compute profile: entry
	// k is charged to platform k's virtual clock each time it ships a
	// loss gradient (see simnet.Compute). Heterogeneous entries model
	// compute stragglers. Length must equal Platforms; the analytic
	// estimators use the mean (which preserves the sequential sum
	// exactly). Requires Topology.
	SimCompute []time.Duration
	// SimFaults scripts deterministic link failures into the simulated
	// WAN (drop platform k at round r, partitions, swallowed payloads).
	// Requires SimWAN; without SimRejoin a triggered fault is fatal to
	// the session, exactly like an unhandled WAN drop.
	SimFaults []simnet.Fault
	// SimRejoin enables dropout recovery over the simulated WAN:
	// "wait" (bit-identical WaitForRejoin) or "proceed"
	// (ProceedWithout). Platforms redial through the simulated network
	// and rejoin via the broker. Requires SimWAN and sequential
	// scheduling (the recovery machinery's constraint).
	SimRejoin string
	// Replicas runs this many in-process warm followers behind the
	// split server: every training step is appended to a write-ahead
	// log and streamed to the followers before its cut gradient is
	// acked, so the aggregation tier survives a leader crash. Split
	// scheme only; requires sequential scheduling.
	Replicas int
	// WALDir is where the replication tier keeps its write-ahead logs
	// (a subdirectory for the leader and one per follower). Empty with
	// Replicas > 0 uses a private temporary directory that is removed
	// after the run. Requires Replicas.
	WALDir string
	// KillLeaderAt, when positive, kills the leader at that round — the
	// server process dies while sending platform 0's cut gradient over
	// the simulated WAN, severing every link at once — and fails the
	// session over: the most caught-up follower promotes, the platforms
	// redial into it, and training finishes bit-identically to an
	// undisturbed run. Requires Replicas >= 1, SimWAN, and
	// 0 < KillLeaderAt < Rounds.
	KillLeaderAt int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Arch == "" {
		c.Arch = ArchVGG
	}
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.TrainSamples == 0 {
		c.TrainSamples = 800
	}
	if c.TestSamples == 0 {
		c.TestSamples = 200
	}
	if c.Noise == 0 {
		c.Noise = 0.35
	}
	if c.Platforms == 0 {
		c.Platforms = 4
	}
	if c.Rounds == 0 {
		c.Rounds = 60
	}
	if c.TotalBatch == 0 {
		c.TotalBatch = 8 * c.Platforms
	}
	if c.Sharding == "" {
		c.Sharding = ShardingIID
	}
	if c.Alpha == 0 {
		c.Alpha = 1.2
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.LocalSteps == 0 {
		c.LocalSteps = 1
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = c.Rounds / 5
		if c.EvalEvery < 1 {
			c.EvalEvery = 1
		}
	}
	return c
}

// validate rejects inconsistent configurations. All cross-field Config
// rules live here, except the round-mode ones, which core.NewServer
// owns; the Run* entry points call it right after withDefaults.
func (c Config) validate() error {
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("experiment: negative CheckpointEvery %d", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("experiment: CheckpointEvery without CheckpointDir")
	}
	if c.Platforms <= 0 {
		return fmt.Errorf("experiment: %d platforms", c.Platforms)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("experiment: %d rounds", c.Rounds)
	}
	if c.SimWAN {
		if c.Topology == nil {
			return fmt.Errorf("experiment: SimWAN without a Topology")
		}
		if len(c.Regions) != c.Platforms {
			return fmt.Errorf("experiment: SimWAN with %d regions for %d platforms", len(c.Regions), c.Platforms)
		}
		if c.SimJitter < 0 || c.SimJitter >= 1 {
			return fmt.Errorf("experiment: SimJitter %v outside [0,1)", c.SimJitter)
		}
	} else if c.SimJitter != 0 || len(c.SimFaults) > 0 || c.SimRejoin != "" {
		return fmt.Errorf("experiment: SimJitter/SimFaults/SimRejoin require SimWAN")
	}
	if c.SimComputeServer < 0 {
		return fmt.Errorf("experiment: negative SimComputeServer %v", c.SimComputeServer)
	}
	if c.SimComputeServer > 0 && c.Topology == nil {
		return fmt.Errorf("experiment: SimComputeServer without a Topology")
	}
	if len(c.SimCompute) > 0 {
		if c.Topology == nil {
			return fmt.Errorf("experiment: SimCompute without a Topology")
		}
		if len(c.SimCompute) != c.Platforms {
			return fmt.Errorf("experiment: %d SimCompute entries for %d platforms", len(c.SimCompute), c.Platforms)
		}
		for k, d := range c.SimCompute {
			if d < 0 {
				return fmt.Errorf("experiment: negative SimCompute %v for platform %d", d, k)
			}
		}
	}
	switch c.SimRejoin {
	case "", "wait", "proceed":
	default:
		return fmt.Errorf("experiment: SimRejoin %q (want \"wait\" or \"proceed\")", c.SimRejoin)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("experiment: negative Replicas %d", c.Replicas)
	}
	if c.WALDir != "" && c.Replicas == 0 {
		return fmt.Errorf("experiment: WALDir without Replicas")
	}
	if c.KillLeaderAt != 0 {
		if c.Replicas < 1 {
			return fmt.Errorf("experiment: KillLeaderAt without Replicas")
		}
		if !c.SimWAN {
			return fmt.Errorf("experiment: KillLeaderAt requires SimWAN")
		}
		if c.KillLeaderAt < 0 || c.KillLeaderAt >= c.Rounds {
			return fmt.Errorf("experiment: KillLeaderAt %d outside (0,%d)", c.KillLeaderAt, c.Rounds)
		}
		if c.SimRejoin != "" {
			return fmt.Errorf("experiment: KillLeaderAt and SimRejoin are mutually exclusive (failover owns the redial path)")
		}
	}
	return nil
}

// BuildModel constructs one model instance for the config. Calling it
// repeatedly with the same cfg yields identically initialized replicas
// (cmd/splitserver and cmd/splitplatform rely on this to agree on
// weights across processes).
func BuildModel(c Config) (*models.Model, error) {
	r := rng.New(c.Seed + 0xA11CE)
	switch c.Arch {
	case ArchMLP:
		return models.MLP(3*32*32, []int{64}, c.Classes, r), nil
	case ArchVGG:
		return models.VGGLite(c.Classes, c.Width, r), nil
	case ArchResNet:
		return models.ResNetLite(c.Classes, c.Width, r), nil
	default:
		return nil, fmt.Errorf("experiment: unknown arch %q", c.Arch)
	}
}

// BuildData generates the corpus and shards it across platforms,
// returning the per-platform training shards, the test set, and the
// per-platform batch sizes. It is deterministic in cfg.Seed, so
// separate processes derive identical shards.
func BuildData(c Config) (shards []*dataset.Dataset, test *dataset.Dataset, batches []int, err error) {
	train, test := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: c.Classes,
		Train:   c.TrainSamples,
		Test:    c.TestSamples,
		Noise:   c.Noise,
		Seed:    c.Seed + 0xDA7A,
	})
	// MLP consumes flat vectors.
	if c.Arch == ArchMLP {
		train = flattenDataset(train)
		test = flattenDataset(test)
	}
	r := rng.New(c.Seed + 0x54A4D)
	var idx [][]int
	switch c.Sharding {
	case ShardingIID:
		idx = dataset.ShardIID(train.Len(), c.Platforms, r)
	case ShardingPowerLaw:
		idx = dataset.ShardPowerLaw(train.Len(), c.Platforms, c.Alpha, r)
	case ShardingDirichlet:
		idx = dataset.ShardDirichlet(train.Labels, c.Classes, c.Platforms, c.Alpha, r)
	default:
		return nil, nil, nil, fmt.Errorf("experiment: unknown sharding %q", c.Sharding)
	}
	shards = make([]*dataset.Dataset, c.Platforms)
	sizes := make([]int, c.Platforms)
	for k := range idx {
		shards[k] = train.Subset(idx[k])
		sizes[k] = len(idx[k])
	}
	if c.Proportional {
		batches = dataset.ProportionalBatches(sizes, c.TotalBatch)
	} else {
		batches = dataset.UniformBatches(c.Platforms, c.TotalBatch)
	}
	return shards, test, batches, nil
}

func flattenDataset(d *dataset.Dataset) *dataset.Dataset {
	n := d.X.Dim(0)
	return &dataset.Dataset{X: d.X.Reshape(n, d.X.Size()/n), Labels: d.Labels, Classes: d.Classes}
}

// Result is one scheme's outcome on a config.
type Result struct {
	Scheme        string
	Curve         metrics.Curve
	FinalAccuracy float64
	TrainingBytes int64
	// RoundTime is the analytically estimated wall-clock per round
	// (zero without a topology).
	RoundTime time.Duration
	// SimElapsed is the virtual wall-clock the simulated WAN measured
	// for the whole run (zero unless SimWAN) — the executable
	// counterpart of RoundTime's closed-form estimate. It covers the
	// network schedule plus, when SimComputeServer/SimCompute are set,
	// the per-exchange compute charges, so a compute straggler slows
	// the measured session exactly like a slow link does.
	SimElapsed time.Duration
	// WeightDigest is a 64-bit FNV-1a digest over every final model
	// parameter's raw float bits (platform fronts in id order, then the
	// server back; for the baselines, the global model). Two runs that
	// trained bit-identically share it; the differential scenario tests
	// compare digests across transports, codecs and fault scripts.
	WeightDigest uint64
	// ModelParams is the trainable scalar count, for context in reports.
	ModelParams int
	// InferP50 / InferP99 are client-observed per-request latency
	// percentiles from the serving load harness (RunServeLoad): real
	// wall-clock around each split-inference round trip, so they fold
	// in batching delay and compute-gate queueing, not simulated WAN
	// time (SimElapsed carries that). Zero outside serving runs.
	InferP50, InferP99 time.Duration
	// InferReqPerSec is the achieved request throughput of the load run.
	InferReqPerSec float64
	// InferRequests is the number of requests the load run completed.
	InferRequests int
	// InferBatches is how many back-half forwards served those
	// requests; InferRequests/InferBatches is the achieved dynamic
	// batching factor.
	InferBatches int64
}

// simTime annotates curve points with cumulative simulated time when a
// topology is configured. upPerRound/downPerRound are per-platform
// per-round byte estimates.
func (c Config) simTime(up, down []int64) (time.Duration, error) {
	if c.Topology == nil || len(c.Regions) == 0 {
		return 0, nil
	}
	if len(c.Regions) != c.Platforms {
		return 0, fmt.Errorf("experiment: %d regions for %d platforms", len(c.Regions), c.Platforms)
	}
	return c.Topology.RoundTime(c.Regions, up, down, 0)
}

// platformComputeMean is the analytic estimators' scalar stand-in for
// the per-platform compute profile. The sequential estimator sums
// PlatformCompute once per platform, so the mean reproduces the
// heterogeneous sum exactly.
func (c Config) platformComputeMean() time.Duration {
	if len(c.SimCompute) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range c.SimCompute {
		total += d
	}
	return total / time.Duration(len(c.SimCompute))
}

// newLoss returns the task loss; one place to change if the paper's
// task shifts. Every party gets its own instance: the reusing variant
// holds per-instance gradient scratch, so sharing one across goroutines
// would race.
func newLoss() nn.Loss { return &nn.ReusingSoftmaxCrossEntropy{} }
