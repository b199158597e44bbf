// Package geonet models the wide-area network between geo-distributed
// medical platforms and the central server: per-site links with one-way
// latency and bandwidth, and a synchronous-round wall-clock estimator.
//
// Byte counts — the paper's Fig. 4 metric — are independent of the
// network, so geonet is not in the byte-accounting path; it answers the
// complementary question the geo-distributed setting raises: how long a
// training round takes when hospitals sit behind real WAN links. The
// clock is simulated (no sleeping), so sweeping topologies is free.
package geonet

import (
	"fmt"
	"math"
	"time"

	"medsplit/internal/rng"
)

// Region names a site (a hospital or the server's datacenter).
type Region string

// Link models one platform's WAN path to the server.
type Link struct {
	// LatencyMs is the one-way propagation delay in milliseconds.
	LatencyMs float64
	// Mbps is the usable bandwidth in megabits per second (symmetric).
	Mbps float64
}

// TransferTime returns how long shipping the given number of bytes one
// way takes over the link: latency plus serialization at Mbps.
func (l Link) TransferTime(bytes int64) time.Duration {
	if l.Mbps <= 0 {
		panic(fmt.Sprintf("geonet: non-positive bandwidth %v", l.Mbps))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("geonet: negative byte count %d", bytes))
	}
	seconds := l.LatencyMs/1e3 + float64(bytes)*8/(l.Mbps*1e6)
	return time.Duration(seconds * float64(time.Second))
}

// Topology maps each platform region to its link toward the server.
type Topology struct {
	Server Region
	Links  map[Region]Link
}

// Link returns the link for a region.
func (t *Topology) Link(r Region) (Link, error) {
	l, ok := t.Links[r]
	if !ok {
		return Link{}, fmt.Errorf("geonet: no link for region %q", r)
	}
	return l, nil
}

// RoundTime estimates the wall-clock duration of one synchronous round
// in which platform i ships up[i] bytes to the server and receives
// down[i] bytes back, plus the given server compute time. The round ends
// when the slowest platform finishes (synchronous SGD and the split
// protocol both barrier on the slowest site).
func (t *Topology) RoundTime(regions []Region, up, down []int64, serverCompute time.Duration) (time.Duration, error) {
	if len(regions) != len(up) || len(regions) != len(down) {
		return 0, fmt.Errorf("geonet: %d regions, %d up, %d down", len(regions), len(up), len(down))
	}
	var slowest time.Duration
	for i, r := range regions {
		l, err := t.Link(r)
		if err != nil {
			return 0, err
		}
		d := l.TransferTime(up[i]) + l.TransferTime(down[i])
		if d > slowest {
			slowest = d
		}
	}
	return slowest + serverCompute, nil
}

// SplitRoundShape describes one training round of the split protocol
// in enough detail for SequentialSplitRoundTime: the per-platform
// payload of each of the paper's four messages, plus per-platform
// compute times. Byte slices are indexed by platform, matching the
// regions slice passed to the estimator.
type SplitRoundShape struct {
	// ActsBytes / LogitsBytes / LossGradBytes / CutGradBytes are the
	// per-platform payloads of the four-message exchange (message 1
	// through 4 of the paper's Fig. 2/3).
	ActsBytes, LogitsBytes, LossGradBytes, CutGradBytes []int64
	// ServerCompute is the server's forward+backward+step time for one
	// platform's minibatch.
	ServerCompute time.Duration
	// PlatformCompute is the platform's loss-gradient computation time
	// between receiving logits and shipping the loss gradient.
	PlatformCompute time.Duration
}

func (s SplitRoundShape) validate(regions int) error {
	for _, b := range [][]int64{s.ActsBytes, s.LogitsBytes, s.LossGradBytes, s.CutGradBytes} {
		if len(b) != regions {
			return fmt.Errorf("geonet: split shape has %d entries for %d regions", len(b), regions)
		}
	}
	return nil
}

// SequentialSplitRoundTime estimates one round of RoundModeSequential:
// the server handles platforms strictly one at a time and every
// transfer sits on the critical path, so the round is the sum over
// platforms of all four transfers plus both sides' compute.
func (t *Topology) SequentialSplitRoundTime(regions []Region, s SplitRoundShape) (time.Duration, error) {
	if err := s.validate(len(regions)); err != nil {
		return 0, err
	}
	var total time.Duration
	for i, r := range regions {
		l, err := t.Link(r)
		if err != nil {
			return 0, err
		}
		total += l.TransferTime(s.ActsBytes[i]) + s.ServerCompute +
			l.TransferTime(s.LogitsBytes[i]) + s.PlatformCompute +
			l.TransferTime(s.LossGradBytes[i]) + l.TransferTime(s.CutGradBytes[i])
	}
	return total, nil
}

// DefaultHospitalTopology returns the running example used throughout
// the repo: a central server in a Seoul datacenter (the paper's future
// work names Seoul National University Hospital) with domestic hospital
// links, one cross-country site, and one intercontinental site.
func DefaultHospitalTopology() *Topology {
	return &Topology{
		Server: "seoul-dc",
		Links: map[Region]Link{
			"snuh-seoul":     {LatencyMs: 2, Mbps: 1000},
			"pusan-nat-univ": {LatencyMs: 8, Mbps: 500},
			"chungang-univ":  {LatencyMs: 3, Mbps: 800},
			"korea-univ":     {LatencyMs: 3, Mbps: 800},
			"ucf-orlando":    {LatencyMs: 95, Mbps: 200},
		},
	}
}

// SyntheticClinics deterministically generates an n-clinic topology
// around the same Seoul datacenter: a mix of metro, regional, rural and
// overseas links whose parameters are drawn from a seeded RNG, so the
// scale-out scenarios (25, 100 sites and beyond) have a reproducible
// WAN to run on. Regions come back as "clinic-000" … in platform-index
// order, ready to zip with a platform slice.
func SyntheticClinics(n int, seed uint64) (*Topology, []Region) {
	if n <= 0 {
		panic(fmt.Sprintf("geonet: %d clinics", n))
	}
	r := rng.New(seed ^ 0xC11121C5)
	classes := []struct {
		weight         int
		latLo, latHi   float64 // one-way ms
		mbpsLo, mbpsHi float64
	}{
		{40, 1, 5, 500, 1000}, // metro fiber
		{35, 5, 15, 100, 500}, // regional
		{20, 15, 40, 20, 100}, // rural
		{5, 80, 150, 50, 200}, // overseas partner sites
	}
	totalW := 0
	for _, c := range classes {
		totalW += c.weight
	}
	topo := &Topology{Server: "seoul-dc", Links: make(map[Region]Link, n)}
	regions := make([]Region, n)
	for i := 0; i < n; i++ {
		w := r.Intn(totalW)
		ci := 0
		for w >= classes[ci].weight {
			w -= classes[ci].weight
			ci++
		}
		c := classes[ci]
		reg := Region(fmt.Sprintf("clinic-%03d", i))
		topo.Links[reg] = Link{
			LatencyMs: c.latLo + (c.latHi-c.latLo)*r.Float64(),
			Mbps:      c.mbpsLo + (c.mbpsHi-c.mbpsLo)*r.Float64(),
		}
		regions[i] = reg
	}
	return topo, regions
}

// SyntheticClinicCompute deterministically generates an n-clinic
// per-platform compute profile to pair with SyntheticClinics: most
// sites compute near the base duration, a tail of under-provisioned
// clinics runs slower, and stragglerFrac of the fleet (rounded up, at
// least one when the fraction is positive) is a genuine straggler at
// 8× base — slow *compute*, the failure mode slow links cannot model.
// The draw is seeded, so equal (n, seed, base, stragglerFrac) give
// bit-identical profiles.
func SyntheticClinicCompute(n int, seed uint64, base time.Duration, stragglerFrac float64) []time.Duration {
	if n <= 0 {
		panic(fmt.Sprintf("geonet: %d clinics", n))
	}
	if base < 0 {
		panic(fmt.Sprintf("geonet: negative base compute %v", base))
	}
	if stragglerFrac < 0 || stragglerFrac > 1 {
		panic(fmt.Sprintf("geonet: straggler fraction %v outside [0,1]", stragglerFrac))
	}
	r := rng.New(seed ^ 0xC0DE517E)
	out := make([]time.Duration, n)
	for i := range out {
		// Healthy spread: 0.75×–1.5× base (modern vs aging hardware).
		out[i] = time.Duration(float64(base) * (0.75 + 0.75*r.Float64()))
	}
	stragglers := int(math.Ceil(stragglerFrac * float64(n)))
	for s := 0; s < stragglers; s++ {
		// A seeded pick with replacement keeps the draw order (and thus
		// the profile) stable as stragglerFrac grows.
		out[r.Intn(n)] = 8 * base
	}
	return out
}

// Clock accumulates simulated time. It is not safe for concurrent use;
// the experiment loop owns it.
type Clock struct {
	now time.Duration
}

// Advance moves the clock forward by d (negative d panics).
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic("geonet: clock cannot move backwards")
	}
	c.now += d
}

// Now returns the elapsed simulated time.
func (c *Clock) Now() time.Duration { return c.now }
