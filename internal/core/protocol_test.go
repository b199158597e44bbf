package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// trainEvents filters a platform's trace down to training-exchange
// messages (the paper's four communications plus label sharing).
func trainEvents(events []TraceEvent, party string) []TraceEvent {
	var out []TraceEvent
	for _, e := range events {
		if e.Party != party {
			continue
		}
		switch e.Type {
		case wire.MsgActivations, wire.MsgLogits, wire.MsgLossGrad, wire.MsgCutGrad, wire.MsgLabels:
			out = append(out, e)
		}
	}
	return out
}

// The protocol must follow the paper's Fig. 3 exactly: per minibatch,
// (1) activations up, (2) logits down, (3) loss gradients up, (4) cut
// gradients down.
func TestFourMessageSequencePerRound(t *testing.T) {
	train, _ := testData(t, 3, 32, 8, 21)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 81, flat.X.Dim(1), 3)

	var rec Recorder
	const rounds = 3
	srv := defaultServer(t, back, 1, rounds, nil)
	plat := defaultPlatform(t, 0, front, flat, rounds, func(c *PlatformConfig) {
		c.Trace = rec.Record
	})
	if _, err := RunLocal(srv, []*Platform{plat}); err != nil {
		t.Fatal(err)
	}

	evs := trainEvents(rec.Events(), "platform-0")
	if len(evs) != 4*rounds {
		t.Fatalf("%d training events, want %d", len(evs), 4*rounds)
	}
	wantSeq := []struct {
		dir string
		typ wire.MsgType
	}{
		{"send", wire.MsgActivations},
		{"recv", wire.MsgLogits},
		{"send", wire.MsgLossGrad},
		{"recv", wire.MsgCutGrad},
	}
	for r := 0; r < rounds; r++ {
		for i, want := range wantSeq {
			e := evs[4*r+i]
			if e.Dir != want.dir || e.Type != want.typ || e.Round != r {
				t.Fatalf("round %d step %d: got %v, want %s %s r%d", r, i, e, want.dir, want.typ, r)
			}
		}
	}
}

func TestLabelSharingTwoCommunicationsPerRound(t *testing.T) {
	train, _ := testData(t, 3, 32, 8, 22)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 91, flat.X.Dim(1), 3)

	var rec Recorder
	const rounds = 2
	srv := defaultServer(t, back, 1, rounds, func(c *ServerConfig) {
		c.LabelSharing = true
		c.Loss = nn.SoftmaxCrossEntropy{}
	})
	plat := defaultPlatform(t, 0, front, flat, rounds, func(c *PlatformConfig) {
		c.LabelSharing = true
		c.Loss = nil
		c.Trace = rec.Record
	})
	if _, err := RunLocal(srv, []*Platform{plat}); err != nil {
		t.Fatal(err)
	}
	evs := trainEvents(rec.Events(), "platform-0")
	// Per round: Activations up, Labels up, CutGrad down — one up/down
	// round trip instead of two.
	if len(evs) != 3*rounds {
		t.Fatalf("%d training events, want %d", len(evs), 3*rounds)
	}
	for r := 0; r < rounds; r++ {
		if evs[3*r].Type != wire.MsgActivations || evs[3*r+1].Type != wire.MsgLabels || evs[3*r+2].Type != wire.MsgCutGrad {
			t.Fatalf("round %d sequence: %v %v %v", r, evs[3*r], evs[3*r+1], evs[3*r+2])
		}
	}
}

// The server must handle platforms in a fixed order within each round
// (the deterministic schedule the experiments and the simnet timelines
// rely on). Sequential runs each platform's exchange through before the
// next platform's starts; concat runs every platform through one wire
// step before any platform takes the next, around its fused forward and
// backward. Each case pins the server's full per-round sequence of
// training messages.
func TestServerRoundRobinOrdering(t *testing.T) {
	type step struct {
		dir string
		typ wire.MsgType
	}
	var (
		acts     = step{"recv", wire.MsgActivations}
		labels   = step{"recv", wire.MsgLabels}
		logits   = step{"send", wire.MsgLogits}
		lossGrad = step{"recv", wire.MsgLossGrad}
		cutGrad  = step{"send", wire.MsgCutGrad}
	)
	cases := []struct {
		name         string
		mode         RoundMode
		labelSharing bool
		// waves run in order; within a wave each platform in id order
		// takes every step of the wave.
		waves [][]step
	}{
		{"sequential/label-private", RoundModeSequential, false, [][]step{{acts, logits, lossGrad, cutGrad}}},
		{"sequential/label-sharing", RoundModeSequential, true, [][]step{{acts, labels, cutGrad}}},
		{"concat/label-private", RoundModeConcat, false, [][]step{{acts}, {logits}, {lossGrad}, {cutGrad}}},
		{"concat/label-sharing", RoundModeConcat, true, [][]step{{acts, labels}, {cutGrad}}},
	}
	train, _ := testData(t, 3, 60, 8, 23)
	flat := flatten(train)
	const rounds, K = 2, 3
	shards := dataset.ShardIID(flat.Len(), K, rng.New(24))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fronts, back := buildFronts(t, 101, K, flat.X.Dim(1), 3)
			var rec Recorder
			srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) {
				c.Mode = tc.mode
				c.Trace = rec.Record
				if tc.labelSharing {
					c.LabelSharing = true
					c.Loss = nn.SoftmaxCrossEntropy{}
				}
			})
			platforms := make([]*Platform, K)
			for k := 0; k < K; k++ {
				platforms[k] = defaultPlatform(t, k, fronts[k], flat.Subset(shards[k]), rounds, func(c *PlatformConfig) {
					if tc.labelSharing {
						c.LabelSharing = true
						c.Loss = nil
					}
				})
			}
			if _, err := RunLocal(srv, platforms); err != nil {
				t.Fatal(err)
			}
			var want []string
			for r := 0; r < rounds; r++ {
				for _, wave := range tc.waves {
					for k := 0; k < K; k++ {
						for _, st := range wave {
							want = append(want, fmt.Sprintf("r%d %s %s %d", r, st.dir, st.typ, k))
						}
					}
				}
			}
			var got []string
			for _, e := range trainEvents(rec.Events(), "server") {
				got = append(got, fmt.Sprintf("r%d %s %s %d", e.Round, e.Dir, e.Type, e.Platform))
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("server wire order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// captureConn records every message sent through it, so the privacy
// test can inspect exactly what the server would see.
type captureConn struct {
	transport.Conn
	mu   sync.Mutex
	sent []*wire.Message
}

func (c *captureConn) Send(m *wire.Message) error {
	c.mu.Lock()
	c.sent = append(c.sent, m)
	c.mu.Unlock()
	return c.Conn.Send(m)
}

// The privacy invariant of the paper: the server observes only L1
// outputs, never raw patient data and never labels (in label-private
// mode). We capture the platform's entire outbound stream and assert no
// raw input row appears in any payload and no label message exists.
func TestPrivacyRawDataAndLabelsNeverLeavePlatform(t *testing.T) {
	train, test := testData(t, 3, 40, 12, 25)
	flat, flatTest := flatten(train), flatten(test)
	front, back := buildSplitMLP(t, 111, flat.X.Dim(1), 3)
	const rounds = 4

	srv := defaultServer(t, back, 1, rounds, func(c *ServerConfig) {
		c.EvalEvery = 2
	})
	plat := defaultPlatform(t, 0, front, flat, rounds, func(c *PlatformConfig) {
		c.EvalEvery = 2
		c.EvalData = flatTest
	})

	// Wire the session manually so the platform side is captured.
	sConn, pConn := transport.Pipe()
	cap := &captureConn{Conn: pConn}
	errCh := make(chan error, 2)
	go func() { errCh <- srv.Serve([]transport.Conn{sConn}) }()
	go func() {
		_, err := plat.Run(cap)
		errCh <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	for _, m := range cap.sent {
		if m.Type == wire.MsgLabels {
			t.Fatal("labels crossed the wire in label-private mode")
		}
	}
	// No payload may contain a raw input sample. Raw rows are 3072
	// floats; L1 outputs are 32 floats — but check content, not just
	// shape: decode every tensor the platform sent and scan for the
	// first input row as a contiguous subsequence.
	probe := flat.X.Row(0)
	for _, m := range cap.sent {
		switch m.Type {
		case wire.MsgActivations, wire.MsgLossGrad, wire.MsgEvalActivations, wire.MsgModelPush:
			ts, err := wire.DecodeTensors(m.Payload)
			if err != nil {
				t.Fatalf("decoding %s: %v", m.Type, err)
			}
			for _, x := range ts {
				if containsSubsequence(x.Data(), probe) {
					t.Fatalf("raw input found inside a %s payload", m.Type)
				}
			}
		}
	}
}

func containsSubsequence(haystack, needle []float32) bool {
	if len(needle) == 0 || len(haystack) < len(needle) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j, v := range needle {
			if haystack[i+j] != v {
				continue outer
			}
		}
		return true
	}
	return false
}

// The activation payload must be exactly the L1 output — the only data
// the paper allows the server to see.
func TestActivationPayloadIsL1Output(t *testing.T) {
	train, _ := testData(t, 3, 16, 4, 26)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 121, flat.X.Dim(1), 3)

	srv := defaultServer(t, back, 1, 1, nil)
	plat := defaultPlatform(t, 0, front, flat, 1, func(c *PlatformConfig) {
		c.Batch = 4
	})
	sConn, pConn := transport.Pipe()
	cap := &captureConn{Conn: pConn}
	errCh := make(chan error, 2)
	go func() { errCh <- srv.Serve([]transport.Conn{sConn}) }()
	go func() {
		_, err := plat.Run(cap)
		errCh <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	var act *tensor.Tensor
	for _, m := range cap.sent {
		if m.Type == wire.MsgActivations {
			ts, err := wire.DecodeTensors(m.Payload)
			if err != nil {
				t.Fatal(err)
			}
			act = ts[0]
		}
	}
	if act == nil {
		t.Fatal("no activations captured")
	}
	if act.Dim(0) != 4 || act.Dim(1) != 32 {
		t.Fatalf("activation shape %v, want [4 32] (batch × L1 width)", act.Shape())
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	var rec Recorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				rec.Record(TraceEvent{Party: fmt.Sprintf("p%d", i), Round: j})
			}
		}(i)
	}
	wg.Wait()
	if got := len(rec.Events()); got != 800 {
		t.Fatalf("%d events, want 800", got)
	}
}

func TestTraceEventString(t *testing.T) {
	e := TraceEvent{Party: "server", Dir: "send", Type: wire.MsgLogits, Platform: 2, Round: 7, Bytes: 128}
	s := e.String()
	for _, sub := range []string{"server", "send", "logits", "p2", "r7", "128B"} {
		if !contains(s, sub) {
			t.Fatalf("String() = %q missing %q", s, sub)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
