package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{Type: MsgActivations, Platform: 3, Round: 42, Payload: []byte{1, 2, 3}}
	var buf bytes.Buffer
	n, err := m.Write(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != m.WireSize() || n != buf.Len() {
		t.Fatalf("wrote %d, WireSize %d, buffered %d", n, m.WireSize(), buf.Len())
	}
	got, rn, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rn != n {
		t.Fatalf("read %d bytes, wrote %d", rn, n)
	}
	if got.Type != m.Type || got.Platform != 3 || got.Round != 42 || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestEmptyPayloadMessage(t *testing.T) {
	m := &Message{Type: MsgAck}
	var buf bytes.Buffer
	if _, err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload %v", got.Payload)
	}
}

func TestSequentialMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		m := &Message{Type: MsgLogits, Round: uint32(i), Payload: []byte{byte(i)}}
		if _, err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		got, _, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Round != uint32(i) || got.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order: %+v", i, got)
		}
	}
	if _, _, err := Read(&buf); err != io.EOF {
		t.Fatalf("expected EOF at end of stream, got %v", err)
	}
}

func TestWriteRejectsInvalidType(t *testing.T) {
	var buf bytes.Buffer
	if _, err := (&Message{}).Write(&buf); !errors.Is(err, ErrBadType) {
		t.Fatalf("err = %v, want ErrBadType", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	mk := func() []byte {
		var buf bytes.Buffer
		m := &Message{Type: MsgCutGrad, Payload: []byte{9, 9, 9, 9}}
		if _, err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	t.Run("bad magic", func(t *testing.T) {
		b := mk()
		b[0] ^= 0xff
		if _, _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := mk()
		b[2] = 99
		if _, _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad type", func(t *testing.T) {
		b := mk()
		b[3] = 200
		if _, _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadType) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		b := mk()
		b[len(b)-1] ^= 0x01
		if _, _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		b := mk()
		if _, _, err := Read(bytes.NewReader(b[:len(b)-2])); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("hostile length", func(t *testing.T) {
		b := mk()
		// Set payload length to maxPayload+1.
		b[12], b[13], b[14], b[15] = 0x01, 0x00, 0x00, 0x10
		if _, _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestMsgTypeStrings(t *testing.T) {
	for mt := MsgHello; mt < msgTypeCount; mt++ {
		if !mt.Valid() {
			t.Fatalf("type %d invalid", mt)
		}
		if mt.String() == "" {
			t.Fatalf("type %d has empty name", mt)
		}
	}
	if MsgType(0).Valid() || MsgType(200).Valid() {
		t.Fatal("invalid types reported valid")
	}
}

func TestTensorPayloadRoundTrip(t *testing.T) {
	r := rng.New(1)
	a := tensor.New(4, 7)
	a.FillNormal(r, 0, 1)
	b := tensor.New(2, 3, 3)
	b.FillNormal(r, 0, 1)
	payload := EncodeTensors(a, b)
	if len(payload) != TensorsPayloadSize([]int{4, 7}, []int{2, 3, 3}) {
		t.Fatalf("payload %d bytes, predicted %d", len(payload), TensorsPayloadSize([]int{4, 7}, []int{2, 3, 3}))
	}
	ts, err := DecodeTensors(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || !tensor.AllClose(ts[0], a, 0) || !tensor.AllClose(ts[1], b, 0) {
		t.Fatal("tensor payload mismatch")
	}
	// Corruptions.
	if _, err := DecodeTensors(payload[:5]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("truncated: %v", err)
	}
	if _, err := DecodeTensors(append(payload, 0)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("trailing: %v", err)
	}
	if _, err := DecodeTensors(EncodeLabelsInto(nil, []int{1})); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("wrong kind: %v", err)
	}
}

func TestLabelsPayloadRoundTrip(t *testing.T) {
	labels := []int{0, 5, 99, 3}
	dst := make([]int, 0, 8)
	got, err := DecodeLabelsInto(dst, EncodeLabelsInto(nil, labels))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(labels) {
		t.Fatalf("got %v", got)
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("got %v, want %v", got, labels)
		}
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("decode did not reuse the destination's storage")
	}
	// Appending keeps the buffer's prefix; empty labels round-trip.
	buf := EncodeLabelsInto([]byte("prefix"), nil)
	if string(buf[:6]) != "prefix" {
		t.Fatalf("prefix clobbered: %q", buf[:6])
	}
	if got, err := DecodeLabelsInto(nil, buf[6:]); err != nil || len(got) != 0 {
		t.Fatalf("empty: %v %v", got, err)
	}
	if _, err := DecodeLabelsInto(nil, []byte{payloadLabels, 1}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("truncated: %v", err)
	}
}

func TestTextPayloadRoundTrip(t *testing.T) {
	s, err := DecodeText(EncodeText("hello platform"))
	if err != nil || s != "hello platform" {
		t.Fatalf("%q %v", s, err)
	}
	if _, err := DecodeText(nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("nil: %v", err)
	}
}

// Property: any message round-trips bit-exactly through a stream.
func TestMessageRoundTripProperty(t *testing.T) {
	f := func(platform, round uint32, payload []byte) bool {
		m := &Message{Type: MsgGradPush, Platform: platform, Round: round, Payload: payload}
		var buf bytes.Buffer
		if _, err := m.Write(&buf); err != nil {
			return false
		}
		got, _, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.Platform == platform && got.Round == round && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteRead(b *testing.B) {
	payload := make([]byte, 16*1024)
	m := &Message{Type: MsgActivations, Payload: payload}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := m.Write(&buf); err != nil {
			b.Fatal(err)
		}
		if _, _, err := Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(m.WireSize()))
}
