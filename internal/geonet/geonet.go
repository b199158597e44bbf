// Package geonet models the wide-area network between geo-distributed
// medical platforms and the central server: per-site links with one-way
// latency and bandwidth, the paper's hospital topology, and seeded
// synthetic clinic fleets with their compute profiles.
//
// geonet only describes the network. Time is measured by running the
// protocol over internal/simnet, which takes each platform's link from
// a Topology (simnet.FromTopology); experiment.Config.Topology selects
// that for every scheme. Byte counts — the paper's Fig. 4 metric — do
// not depend on the network at all.
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
