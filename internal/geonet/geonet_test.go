package geonet

import (
	"testing"
	"time"
)

func TestTransferTime(t *testing.T) {
	l := Link{LatencyMs: 10, Mbps: 100}
	// 0 bytes: pure latency.
	if got := l.TransferTime(0); got != 10*time.Millisecond {
		t.Fatalf("latency-only = %v", got)
	}
	// 12.5 MB at 100 Mbps = 1s, plus 10ms latency.
	if got := l.TransferTime(12_500_000); got != 1010*time.Millisecond {
		t.Fatalf("1s transfer = %v", got)
	}
}

func TestTransferTimePanics(t *testing.T) {
	assertPanics(t, "zero bandwidth", func() { Link{LatencyMs: 1}.TransferTime(1) })
	assertPanics(t, "negative bytes", func() { Link{Mbps: 10}.TransferTime(-1) })
}

func TestTopologyLinkLookup(t *testing.T) {
	topo := DefaultHospitalTopology()
	if _, err := topo.Link("snuh-seoul"); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Link("nowhere"); err == nil {
		t.Fatal("unknown region must error")
	}
}

func TestRoundTimeIsSlowestPlatform(t *testing.T) {
	topo := &Topology{
		Server: "dc",
		Links: map[Region]Link{
			"fast": {LatencyMs: 1, Mbps: 1000},
			"slow": {LatencyMs: 50, Mbps: 10},
		},
	}
	regions := []Region{"fast", "slow"}
	up := []int64{1_000_000, 1_000_000}
	down := []int64{1_000_000, 1_000_000}
	got, err := topo.RoundTime(regions, up, down, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Slow platform: 2×(50ms + 8Mb/10Mbps=800ms) = 1.7s, + 5ms compute.
	want := 1700*time.Millisecond + 5*time.Millisecond
	if got != want {
		t.Fatalf("round time %v, want %v", got, want)
	}
}

func TestRoundTimeValidation(t *testing.T) {
	topo := DefaultHospitalTopology()
	if _, err := topo.RoundTime([]Region{"snuh-seoul"}, []int64{1, 2}, []int64{1}, 0); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := topo.RoundTime([]Region{"nowhere"}, []int64{1}, []int64{1}, 0); err == nil {
		t.Fatal("unknown region must error")
	}
}

// fiveHospitalShape is a representative round: VGG-lite-sized
// activations/cut-grads (the big payloads) and small logits/loss-grads,
// across the default 5-site topology.
func fiveHospitalShape(k int) SplitRoundShape {
	acts := make([]int64, k)
	logits := make([]int64, k)
	lossg := make([]int64, k)
	cutg := make([]int64, k)
	for i := range acts {
		acts[i] = 2_000_000
		logits[i] = 4_000
		lossg[i] = 4_000
		cutg[i] = 2_000_000
	}
	return SplitRoundShape{
		ActsBytes: acts, LogitsBytes: logits, LossGradBytes: lossg, CutGradBytes: cutg,
		ServerCompute: 20 * time.Millisecond, PlatformCompute: 2 * time.Millisecond,
	}
}

func defaultRegions() []Region {
	return []Region{"snuh-seoul", "pusan-nat-univ", "chungang-univ", "korea-univ", "ucf-orlando"}
}

// With zero-byte transfers only compute remains: the round is the
// server's and the platform's compute, back to back.
func TestSequentialRoundTimeComputeOnly(t *testing.T) {
	topo := &Topology{Server: "dc", Links: map[Region]Link{"a": {LatencyMs: 0, Mbps: 1000}}}
	shape := SplitRoundShape{
		ActsBytes: []int64{0}, LogitsBytes: []int64{0}, LossGradBytes: []int64{0}, CutGradBytes: []int64{0},
		ServerCompute: 7 * time.Millisecond, PlatformCompute: 3 * time.Millisecond,
	}
	seq, err := topo.SequentialSplitRoundTime([]Region{"a"}, shape)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10*time.Millisecond {
		t.Fatalf("compute-only round: %v, want 10ms", seq)
	}
}

func TestSplitRoundTimeValidation(t *testing.T) {
	topo := DefaultHospitalTopology()
	regions := defaultRegions()
	bad := fiveHospitalShape(len(regions) - 1)
	if _, err := topo.SequentialSplitRoundTime(regions, bad); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := topo.SequentialSplitRoundTime([]Region{"nowhere"}, fiveHospitalShape(1)); err == nil {
		t.Fatal("unknown region must error")
	}
}

// The synthetic compute profile is deterministic under its seed,
// bounded by the documented spread, and plants genuine stragglers.
func TestSyntheticClinicCompute(t *testing.T) {
	const n = 100
	base := 10 * time.Millisecond
	a := SyntheticClinicCompute(n, 7, base, 0.1)
	b := SyntheticClinicCompute(n, 7, base, 0.1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clinic %d: %v vs %v under the same seed", i, a[i], b[i])
		}
	}
	stragglers := 0
	for i, d := range a {
		if d == 8*base {
			stragglers++
			continue
		}
		if d < 3*base/4 || d > 3*base/2 {
			t.Fatalf("clinic %d compute %v outside the healthy 0.75×–1.5× spread", i, d)
		}
	}
	if stragglers == 0 || stragglers > n/5 {
		t.Fatalf("%d stragglers out of %d with fraction 0.1", stragglers, n)
	}
	none := SyntheticClinicCompute(n, 7, base, 0)
	for i, d := range none {
		if d == 8*base {
			t.Fatalf("clinic %d is a straggler with fraction 0", i)
		}
	}
	if c := SyntheticClinicCompute(n, 8, base, 0.1); func() bool {
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical profiles")
	}
	assertPanics(t, "zero clinics", func() { SyntheticClinicCompute(0, 1, base, 0) })
	assertPanics(t, "negative base", func() { SyntheticClinicCompute(1, 1, -base, 0) })
	assertPanics(t, "fraction out of range", func() { SyntheticClinicCompute(1, 1, base, 1.5) })
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	c.Advance(time.Second)
	if c.Now() != 2*time.Second {
		t.Fatalf("Now = %v", c.Now())
	}
	assertPanics(t, "backwards", func() { c.Advance(-1) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
