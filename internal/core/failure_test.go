package core

import (
	"errors"
	"fmt"
	"testing"

	"medsplit/internal/nn"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// serveOne starts a 1-platform server on a pipe and returns the client
// end plus the server's error channel, letting tests drive the protocol
// by hand with hostile inputs.
func serveOne(t *testing.T, mut func(*ServerConfig)) (transport.Conn, chan error) {
	t.Helper()
	train, _ := testData(t, 2, 16, 4, 31)
	flat := flatten(train)
	_, back := buildSplitMLP(t, 131, flat.X.Dim(1), 2)
	srv := defaultServer(t, back, 1, 2, mut)
	sConn, pConn := transport.Pipe()
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.Serve([]transport.Conn{sConn})
		sConn.Close()
	}()
	return pConn, errCh
}

func hello(rounds int) *wire.Message {
	meta := fmt.Sprintf("v=1;rounds=%d;labelshare=false;sync=0;eval=0;codec=raw;evaluator=false", rounds)
	return &wire.Message{Type: wire.MsgHello, Platform: 0, Payload: wire.EncodeText(meta)}
}

func TestServerRejectsWrongFirstMessage(t *testing.T) {
	conn, errCh := serveOne(t, nil)
	defer conn.Close()
	if err := conn.Send(&wire.Message{Type: wire.MsgAck}); err != nil {
		t.Fatal(err)
	}
	err := <-errCh
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestServerRejectsWrongPlatformID(t *testing.T) {
	conn, errCh := serveOne(t, nil)
	defer conn.Close()
	m := hello(2)
	m.Platform = 5
	if err := conn.Send(m); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestServerRejectsMalformedActivations(t *testing.T) {
	conn, errCh := serveOne(t, nil)
	defer conn.Close()
	if err := conn.Send(hello(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // hello-ack
		t.Fatal(err)
	}
	// Garbage payload in a validly framed message.
	if err := conn.Send(&wire.Message{
		Type:    wire.MsgActivations,
		Round:   0,
		Payload: []byte{0xde, 0xad, 0xbe, 0xef},
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestServerRejectsWrongRoundNumber(t *testing.T) {
	conn, errCh := serveOne(t, nil)
	defer conn.Close()
	if err := conn.Send(hello(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	a := tensor.New(4, 32)
	if err := conn.Send(&wire.Message{
		Type:    wire.MsgActivations,
		Round:   7, // server expects round 0
		Payload: wire.EncodeTensors(a),
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestServerRejectsMismatchedLossGradShape(t *testing.T) {
	conn, errCh := serveOne(t, nil)
	defer conn.Close()
	if err := conn.Send(hello(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	a := tensor.New(4, 32)
	if err := conn.Send(&wire.Message{Type: wire.MsgActivations, Round: 0, Payload: wire.EncodeTensors(a)}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // logits
		t.Fatal(err)
	}
	bad := tensor.New(4, 99) // wrong class count
	if err := conn.Send(&wire.Message{Type: wire.MsgLossGrad, Round: 0, Payload: wire.EncodeTensors(bad)}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestPlatformFailsCleanlyOnServerDeath(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 32)
	flat := flatten(train)
	front, _ := buildSplitMLP(t, 141, flat.X.Dim(1), 2)
	plat := defaultPlatform(t, 0, front, flat, 5, nil)

	sConn, pConn := transport.Pipe()
	// Server accepts the handshake then dies.
	go func() {
		m, err := sConn.Recv()
		if err != nil || m.Type != wire.MsgHello {
			sConn.Close()
			return
		}
		_ = sConn.Send(&wire.Message{Type: wire.MsgHelloAck, Payload: wire.EncodeText("mode=sequential")})
		sConn.Close()
	}()
	_, err := plat.Run(pConn)
	if err == nil {
		t.Fatal("platform must fail when the server dies")
	}
}

func TestPlatformRejectsPeerError(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 33)
	flat := flatten(train)
	front, _ := buildSplitMLP(t, 151, flat.X.Dim(1), 2)
	plat := defaultPlatform(t, 0, front, flat, 5, nil)

	sConn, pConn := transport.Pipe()
	go func() {
		defer sConn.Close()
		if _, err := sConn.Recv(); err != nil {
			return
		}
		_ = sConn.Send(&wire.Message{Type: wire.MsgErrorMsg, Payload: wire.EncodeText("config mismatch")})
	}()
	_, err := plat.Run(pConn)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol wrapping peer error", err)
	}
}

func TestRunLocalSurvivesPlatformConfigError(t *testing.T) {
	// A platform whose shard is smaller than its batch gets the batch
	// clamped (sampler behaviour), so build a genuinely broken pairing:
	// rounds mismatch, which must surface as one joined error, not a
	// deadlock.
	train, _ := testData(t, 2, 16, 4, 34)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 161, flat.X.Dim(1), 2)
	srv := defaultServer(t, back, 1, 3, nil)
	plat := defaultPlatform(t, 0, front, flat, 9, nil)
	if _, err := RunLocal(srv, []*Platform{plat}); err == nil {
		t.Fatal("expected error")
	}
}

// Label-sharing handshakes must agree on both ends.
func TestHandshakeRejectsLabelSharingMismatch(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 35)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 171, flat.X.Dim(1), 2)
	srv := defaultServer(t, back, 1, 2, func(c *ServerConfig) {
		c.LabelSharing = true
		c.Loss = nn.SoftmaxCrossEntropy{}
	})
	plat := defaultPlatform(t, 0, front, flat, 2, nil) // label-private
	if _, err := RunLocal(srv, []*Platform{plat}); err == nil {
		t.Fatal("label-sharing mismatch accepted")
	}
}
