package simnet

import (
	"fmt"
	"sort"

	"medsplit/internal/geonet"
	"medsplit/internal/transport"
)

// Pair is the two endpoints of one platform's link.
type Pair struct {
	Server   transport.Conn
	Platform transport.Conn
}

// FromTopology builds a network with one link per platform, taking
// each platform's WAN parameters from the geonet topology via its
// region — the bridge that turns the paper's site-to-site parameters
// into an executable transport. pairs[k] carries platform
// k's endpoints.
func FromTopology(topo *geonet.Topology, regions []geonet.Region, opts Options) (*Network, []Pair, error) {
	if topo == nil {
		return nil, nil, fmt.Errorf("simnet: nil topology")
	}
	n := New(opts)
	pairs := make([]Pair, len(regions))
	for k, r := range regions {
		l, err := topo.Link(r)
		if err != nil {
			return nil, nil, err
		}
		s, p := n.AddLink(k, l)
		pairs[k] = Pair{Server: s, Platform: p}
	}
	return n, pairs, nil
}

// Ideal builds a network of n zero-latency, infinite-bandwidth links —
// the configuration under which a simnet session must be bit-identical
// to one over transport.Pipe (the differential tests enforce it).
func Ideal(n int, opts Options) (*Network, []Pair) {
	net := New(opts)
	pairs := make([]Pair, n)
	for k := 0; k < n; k++ {
		s, p := net.AddLink(k, geonet.Link{})
		pairs[k] = Pair{Server: s, Platform: p}
	}
	return net, pairs
}

// Regions returns a topology's platform regions in deterministic
// (sorted) order — the canonical platform-index assignment used by the
// examples and benchmarks when a topology arrives as a map.
func Regions(topo *geonet.Topology) []geonet.Region {
	out := make([]geonet.Region, 0, len(topo.Links))
	for r := range topo.Links {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
