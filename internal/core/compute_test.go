package core

import (
	"hash/fnv"
	"math"
	"sync/atomic"
	"testing"

	"medsplit/internal/nn"
)

// countingGate admits everything but audits the acquire/release
// protocol: every acquisition released, never nested within the
// session's single compute goroutine.
type countingGate struct {
	held     atomic.Int32
	maxHeld  atomic.Int32
	acquires atomic.Int64
	releases atomic.Int64
}

func (g *countingGate) Acquire() func() {
	g.acquires.Add(1)
	n := g.held.Add(1)
	for {
		p := g.maxHeld.Load()
		if n <= p || g.maxHeld.CompareAndSwap(p, n) {
			break
		}
	}
	return func() {
		g.held.Add(-1)
		g.releases.Add(1)
	}
}

// digestNets hashes the raw float bits of every parameter so two runs
// can be compared for bit-identity.
func digestNets(fronts []*nn.Sequential, back *nn.Sequential) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	add := func(net *nn.Sequential) {
		for _, p := range net.Params() {
			for _, v := range p.W.Data() {
				bits := math.Float32bits(v)
				buf[0] = byte(bits)
				buf[1] = byte(bits >> 8)
				buf[2] = byte(bits >> 16)
				buf[3] = byte(bits >> 24)
				h.Write(buf[:])
			}
		}
	}
	for _, f := range fronts {
		add(f)
	}
	add(back)
	return h.Sum64()
}

// Every scheduling mode must route its compute through the configured
// gate, release everything it acquires, and — single session, one
// compute goroutine — never hold two acquisitions at once. Gated
// training must also leave the weights exactly where an ungated run
// does: the gate decides when compute runs, never what it computes.
func TestComputeGateWrapsEveryComputeStep(t *testing.T) {
	train, test := testData(t, 4, 64, 16, 5)
	flat, flatTest := flatten(train), flatten(test)
	in := flat.X.Dim(1)
	const rounds, K = 4, 2

	cases := []struct {
		name     string
		servMut  func(*ServerConfig)
		platMut  func(*PlatformConfig)
		minSteps int64 // forwards + backwards the gate must have seen
	}{
		{
			name:     "sequential",
			minSteps: 2 * K * rounds, // posActs forward + posLossGrad backward per platform per round
		},
		{
			name:     "concat",
			servMut:  func(c *ServerConfig) { c.Mode = RoundModeConcat },
			minSteps: 2 * rounds, // one fused forward + backward per round
		},
		{
			name: "label-sharing",
			servMut: func(c *ServerConfig) {
				c.LabelSharing = true
				c.Loss = nn.SoftmaxCrossEntropy{}
			},
			platMut: func(c *PlatformConfig) {
				c.LabelSharing = true
				c.Loss = nil
			},
			minSteps: K * rounds, // fused forward+loss+backward per platform per round
		},
		{
			name: "concat/label-sharing",
			servMut: func(c *ServerConfig) {
				c.Mode = RoundModeConcat
				c.LabelSharing = true
				c.Loss = nn.SoftmaxCrossEntropy{}
			},
			platMut: func(c *PlatformConfig) {
				c.LabelSharing = true
				c.Loss = nil
			},
			minSteps: rounds, // one forward+loss+backward over the union batch per round
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runOnce := func(gate ComputeGate) uint64 {
				fronts, back := buildFronts(t, 31, K, in, 4)
				srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) {
					c.EvalEvery = 2
					c.Compute = gate
					if tc.servMut != nil {
						tc.servMut(c)
					}
				})
				platforms := make([]*Platform, K)
				for k := 0; k < K; k++ {
					k := k
					platforms[k] = defaultPlatform(t, k, fronts[k], flat, rounds, func(c *PlatformConfig) {
						c.EvalEvery = 2
						if k == 0 {
							c.EvalData = flatTest
						}
						if tc.platMut != nil {
							tc.platMut(c)
						}
					})
				}
				if _, err := RunLocal(srv, platforms); err != nil {
					t.Fatal(err)
				}
				return digestNets(fronts, back)
			}

			gate := &countingGate{}
			gated := runOnce(gate)
			ungated := runOnce(nil)

			if got := gate.acquires.Load(); got < tc.minSteps {
				t.Fatalf("gate saw %d acquisitions, want at least %d", got, tc.minSteps)
			}
			if a, r := gate.acquires.Load(), gate.releases.Load(); a != r {
				t.Fatalf("%d acquires but %d releases", a, r)
			}
			if m := gate.maxHeld.Load(); m != 1 {
				t.Fatalf("gate held %d slots at once within a single session, want 1", m)
			}
			if gated != ungated {
				t.Fatalf("gated digest %016x differs from ungated %016x: the gate must not change results", gated, ungated)
			}
		})
	}
}
