package core

import (
	"math"
	"testing"
	"time"

	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/transport/testutil"
	"medsplit/internal/wal"
)

// relaxedRun executes one full split session on a fixed-seed
// 3-platform MLP workload under the given scheduling mode and returns
// the final parameters (per-platform fronts, then the server back).
// All randomness is pinned, so two runs with the same arguments must be
// bit-identical — the property the differential tests below lean on.
func relaxedRun(t *testing.T, mode RoundMode, staleness, l1sync, rounds int) ([][]*nn.Param, []*PlatformStats) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	const K = 3
	train, _ := testData(t, 4, 240, 60, 93)
	flat := flatten(train)
	in := flat.X.Dim(1)

	fronts, back := buildFronts(t, 313, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(94))
	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) {
		c.Mode = mode
		c.Staleness = staleness
		c.L1SyncEvery = l1sync
	})
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		platforms[k] = defaultPlatform(t, k, fronts[k], flat.Subset(shards[k]), rounds, func(c *PlatformConfig) {
			c.L1SyncEvery = l1sync
		})
	}
	stats, err := RunLocal(srv, platforms)
	if err != nil {
		t.Fatal(err)
	}
	params := make([][]*nn.Param, 0, K+1)
	for k := 0; k < K; k++ {
		params = append(params, fronts[k].Params())
	}
	params = append(params, back.Params())
	return params, stats
}

// A staleness cap of 0, the zero value, is the lockstep sequential
// schedule: a one-round window whose exchanges never pause. Spelling the
// cap and the mode out must not change a bit of the model — every
// platform front and the server back.
func TestBoundedStalenessK0BitIdenticalToSequential(t *testing.T) {
	const rounds = 12
	seq, _ := relaxedRun(t, RoundModeSequential, 0, 0, rounds)
	zero, _ := relaxedRun(t, 0, 0, 0, rounds)
	assertParamsBitIdentical(t, "zero config vs sequential K=0", seq, zero)
}

// K=0 with periodic L1 sync is still the lockstep schedule; the sync
// boundary must not disturb the equivalence.
func TestBoundedStalenessK0WithSyncBitIdentical(t *testing.T) {
	const rounds = 8
	seq, _ := relaxedRun(t, RoundModeSequential, 0, 2, rounds)
	zero, _ := relaxedRun(t, 0, 0, 2, rounds)
	assertParamsBitIdentical(t, "zero config + L1 sync vs sequential K=0", seq, zero)
}

// assertParamsBitIdentical compares two parameter sets down to the
// float bit pattern — no tolerance.
func assertParamsBitIdentical(t *testing.T, label string, a, b [][]*nn.Param) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d param sets vs %d", label, len(a), len(b))
	}
	for s := range a {
		if len(a[s]) != len(b[s]) {
			t.Fatalf("%s: set %d has %d vs %d params", label, s, len(a[s]), len(b[s]))
		}
		for i := range a[s] {
			x, y := a[s][i].W.Data(), b[s][i].W.Data()
			if len(x) != len(y) {
				t.Fatalf("%s: set %d param %d size %d vs %d", label, s, i, len(x), len(y))
			}
			for j := range x {
				if math.Float32bits(x[j]) != math.Float32bits(y[j]) {
					t.Fatalf("%s: set %d param %d (%s) differs at scalar %d: %v vs %v",
						label, s, i, a[s][i].Name, j, x[j], y[j])
				}
			}
		}
	}
}

// paramsDiffer reports whether any scalar differs between the two
// parameter sets.
func paramsDiffer(a, b [][]*nn.Param) bool {
	for s := range a {
		for i := range a[s] {
			x, y := a[s][i].W.Data(), b[s][i].W.Data()
			for j := range x {
				if math.Float32bits(x[j]) != math.Float32bits(y[j]) {
					return true
				}
			}
		}
	}
	return false
}

// K >= 1 runs staggered windows of paused exchanges, so the optimizer step
// order genuinely changes: the trajectory must diverge from sequential
// (the mode is not a no-op) yet reproduce itself bit for bit under the
// same seeds, and still make training progress.
func TestBoundedStalenessDeterministicAndDiverges(t *testing.T) {
	const rounds = 12
	a, astats := relaxedRun(t, RoundModeSequential, 2, 0, rounds)
	b, _ := relaxedRun(t, RoundModeSequential, 2, 0, rounds)
	assertParamsBitIdentical(t, "bounded-staleness K=2 repeat", a, b)

	seq, _ := relaxedRun(t, RoundModeSequential, 0, 0, rounds)
	if !paramsDiffer(seq, a) {
		t.Fatal("bounded-staleness K=2 matched sequential bit for bit; the relaxed schedule is not engaging")
	}
	for k, st := range astats {
		if len(st.Rounds) != rounds {
			t.Fatalf("platform %d recorded %d rounds, want %d", k, len(st.Rounds), rounds)
		}
	}
	if astats[0].FinalLoss() >= astats[0].Rounds[0].Loss {
		t.Fatalf("bounded-staleness loss did not decrease: %v -> %v",
			astats[0].Rounds[0].Loss, astats[0].FinalLoss())
	}
}

// SplitFed-style local-parallel training is the staleness cap at the
// averaging period: windows span whole averaging periods, every
// platform's L1 half is averaged at each sync boundary, and the run is
// deterministic. After the final sync round the fronts must be
// bit-identical across platforms — the averaging leaves every platform
// with the same L1 weights.
func TestSplitFedDeterministicAndAveragesFronts(t *testing.T) {
	const rounds, sync = 12, 3 // rounds%sync == 0: the last round is a sync boundary
	a, astats := relaxedRun(t, RoundModeSequential, sync, sync, rounds)
	b, _ := relaxedRun(t, RoundModeSequential, sync, sync, rounds)
	assertParamsBitIdentical(t, "splitfed repeat", a, b)

	fronts := a[:len(a)-1]
	for k := 1; k < len(fronts); k++ {
		for i := range fronts[0] {
			x, y := fronts[0][i].W.Data(), fronts[k][i].W.Data()
			for j := range x {
				if math.Float32bits(x[j]) != math.Float32bits(y[j]) {
					t.Fatalf("platform %d front param %d differs from platform 0 after final sync", k, i)
				}
			}
		}
	}
	if astats[0].FinalLoss() >= astats[0].Rounds[0].Loss {
		t.Fatalf("splitfed loss did not decrease: %v -> %v",
			astats[0].Rounds[0].Loss, astats[0].FinalLoss())
	}
}

// Staleness configuration gates: a pausing schedule (any cap K > 0)
// runs exchanges ahead of the session loop's round counter, so features
// that assume synchronized round boundaries are rejected up front. At
// K=0 nothing pauses, so every one of them is accepted.
func TestRelaxedModeConfigValidation(t *testing.T) {
	train, _ := testData(t, 2, 32, 8, 95)
	flat := flatten(train)
	_, back := buildFronts(t, 317, 1, flat.X.Dim(1), 2)
	stale := func(k int) ServerConfig {
		return ServerConfig{Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: 1, Rounds: 4, Staleness: k}
	}
	// A back half with BatchNorm: stateful, so replaying its forward
	// would advance the running statistics twice.
	bnBack := nn.NewSequential("bn-back", nn.NewBatchNorm("bn", flat.X.Dim(1)), back)
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	cfg := stale(-1)
	if _, err := NewServer(cfg); err == nil {
		t.Fatal("negative staleness accepted")
	}
	cfg = stale(2)
	cfg.Mode = RoundModeConcat
	if _, err := NewServer(cfg); err == nil {
		t.Fatal("staleness cap on concat accepted")
	}
	for _, k := range []int{1, 4} {
		if _, err := NewServer(stale(k)); err != nil {
			t.Fatalf("valid staleness cap %d rejected: %v", k, err)
		}
	}
	// The splitfed preset: a cap at the L1-sync period.
	cfg = stale(2)
	cfg.L1SyncEvery = 2
	if _, err := NewServer(cfg); err != nil {
		t.Fatalf("valid splitfed preset rejected: %v", err)
	}

	features := []struct {
		name string
		mut  func(*ServerConfig)
	}{
		{"checkpoints", func(c *ServerConfig) { c.CheckpointDir = t.TempDir() }},
		{"resume", func(c *ServerConfig) { c.StartRound = 2 }},
		{"LR schedule", func(c *ServerConfig) { c.LRSchedule = nn.StepDecay(0.05, 0.5, 1) }},
		{"BatchNorm back half", func(c *ServerConfig) { c.Back = bnBack }},
		{"replication", func(c *ServerConfig) { c.Replication = &ReplicationConfig{Log: log} }},
		{"dropout recovery", func(c *ServerConfig) {
			c.Recovery = &RecoveryConfig{Policy: WaitForRejoin, Window: time.Second, Broker: NewRejoinBroker()}
		}},
	}
	for _, tc := range features {
		cfg := stale(0)
		tc.mut(&cfg)
		if _, err := NewServer(cfg); err != nil {
			t.Fatalf("K=0 with %s rejected: %v", tc.name, err)
		}
		// K=1 pauses; the splitfed preset (K=2, L1 sync every 2) too.
		for _, k := range []int{1, 2} {
			cfg := stale(k)
			cfg.L1SyncEvery = k
			tc.mut(&cfg)
			if _, err := NewServer(cfg); err == nil {
				t.Fatalf("K=%d with %s accepted", k, tc.name)
			}
		}
	}
}
