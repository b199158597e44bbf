package simnet

import (
	"testing"
	"time"

	"medsplit/internal/geonet"
	"medsplit/internal/transport/testutil"
	"medsplit/internal/wire"
)

// driveSplitRound runs one full 4-message split exchange over a link
// pair, returning after the platform received its cut gradient.
func driveSplitRound(t *testing.T, srv, plat interface {
	Send(*wire.Message) error
	Recv() (*wire.Message, error)
}, round, acts, logits, lossg, cutg int) {
	t.Helper()
	if err := plat.Send(msg(wire.MsgActivations, round, acts)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Send(msg(wire.MsgLogits, round, logits)); err != nil {
		t.Fatal(err)
	}
	if _, err := plat.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := plat.Send(msg(wire.MsgLossGrad, round, lossg)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Send(msg(wire.MsgCutGrad, round, cutg)); err != nil {
		t.Fatal(err)
	}
	if _, err := plat.Recv(); err != nil {
		t.Fatal(err)
	}
}

// The compute model's exact contract: with homogeneous compute and zero
// jitter, a strictly serialized split exchange measures precisely the
// closed form — each of the four messages' latency plus serialization,
// plus the server charge at activations receipt and the platform charge
// at loss-gradient send — on every link of the default 5-hospital
// topology. Each platform runs on its own network so nothing overlaps,
// which is exactly the serialization the closed form assumes.
func TestComputeMatchesSequentialEstimatorPerHospital(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	topo := geonet.DefaultHospitalTopology()
	regions := []geonet.Region{"snuh-seoul", "pusan-nat-univ", "chungang-univ", "korea-univ", "ucf-orlando"}
	const (
		actsP, logitsP, lossgP, cutgP = 200_000, 4_000, 4_000, 200_000
		serverC                       = 20 * time.Millisecond
		platformC                     = 2 * time.Millisecond
		rounds                        = 3
	)

	// transfer is one message's one-way time: latency plus its wire
	// bytes serialized at the link's bandwidth.
	transfer := func(l geonet.Link, payload int) time.Duration {
		bits := float64(wire.WireSizeFor(payload)) * 8
		return time.Duration((l.LatencyMs/1e3 + bits/(l.Mbps*1e6)) * float64(time.Second))
	}
	var want time.Duration // one round over every link, back to back
	for _, reg := range regions {
		l, err := topo.Link(reg)
		if err != nil {
			t.Fatal(err)
		}
		want += transfer(l, actsP) + serverC + transfer(l, logitsP) + platformC +
			transfer(l, lossgP) + transfer(l, cutgP)
	}

	var measured time.Duration
	for _, reg := range regions {
		params, err := topo.Link(reg)
		if err != nil {
			t.Fatal(err)
		}
		n := New(Options{Compute: Compute{
			Server:   serverC,
			Platform: []time.Duration{platformC},
		}})
		srv, plat := n.AddLink(0, params)
		for r := 0; r < rounds; r++ {
			driveSplitRound(t, srv, plat, r, actsP, logitsP, lossgP, cutgP)
		}
		measured += n.Elapsed()
		srv.Close()
		plat.Close()
	}
	// The closed form truncates latency+serialization to a Duration in
	// one go; simnet truncates them separately. Each delivery can differ by a
	// nanosecond, so the match is exact up to that float-truncation
	// noise (60 deliveries here), far below any physical time scale.
	diff := measured - rounds*want
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Microsecond {
		t.Fatalf("measured %v over %d rounds, closed form predicts %v (per round %v vs %v)",
			measured, rounds, rounds*want, measured/rounds, want)
	}
}

// Compute charges are per-platform and only fire on the two training
// message types: platform k's loss-gradient send charges k's own entry,
// the server's activations receipt charges the server duration, and
// eval traffic stays free.
func TestComputeHeterogeneousAndScoped(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{Compute: Compute{
		Server:   5 * time.Millisecond,
		Platform: []time.Duration{10 * time.Millisecond, 0},
	}})
	// Ideal links: any elapsed time is compute, not transfer.
	srv0, plat0 := n.AddLink(0, geonet.Link{})
	srv1, plat1 := n.AddLink(1, geonet.Link{})
	defer func() {
		for _, c := range []interface{ Close() error }{srv0, plat0, srv1, plat1} {
			c.Close()
		}
	}()

	// Eval traffic is never charged.
	if err := plat0.Send(msg(wire.MsgEvalActivations, 0, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv0.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := n.Elapsed(); got != 0 {
		t.Fatalf("eval activations charged %v of compute", got)
	}

	// Training activations charge the server clock only.
	if err := plat1.Send(msg(wire.MsgActivations, 0, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := n.Elapsed(); got != 5*time.Millisecond {
		t.Fatalf("server clock at %v after one activations receipt, want 5ms", got)
	}
	if got := n.PlatformClock(1); got != 0 {
		t.Fatalf("platform 1 clock moved to %v on its own send", got)
	}

	// Platform 0's loss gradient charges its 10ms; platform 1's is free.
	if err := plat0.Send(msg(wire.MsgLossGrad, 0, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv0.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := n.PlatformClock(0); got != 10*time.Millisecond {
		t.Fatalf("platform 0 clock at %v after loss-grad send, want 10ms", got)
	}
	if err := plat1.Send(msg(wire.MsgLossGrad, 0, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := n.PlatformClock(1); got != 0 {
		t.Fatalf("platform 1 (zero compute) clock at %v after loss-grad send", got)
	}
}

// Invalid compute specs are rejected at construction.
func TestComputeValidation(t *testing.T) {
	assertPanics(t, "negative server compute", func() {
		New(Options{Compute: Compute{Server: -time.Millisecond}})
	})
	assertPanics(t, "negative platform compute", func() {
		New(Options{Compute: Compute{Platform: []time.Duration{-1}}})
	})
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
