// Package wire defines the message vocabulary and framing that medsplit's
// distributed-training protocols speak: the four-message split-learning
// exchange of the paper (activations, logits, loss gradients, cut
// gradients), the model/gradient exchange of the parameter-server
// baselines, and the session control messages.
//
// Framing is length-prefixed with a magic, a protocol version and a
// CRC-32 over the payload, so stream corruption and version skew fail
// fast instead of desynchronizing training. Every encoder reports exact
// byte counts — communication volume is the paper's headline metric, so
// accounting is part of the wire contract, not an afterthought.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
)

// MsgType enumerates protocol messages. The zero value is invalid so an
// uninitialized message fails loudly.
type MsgType uint8

// Message types. Hello/HelloAck establish a session; Activations,
// Logits, LossGrad and CutGrad are the paper's four communications
// (Fig. 2/3); ModelPull/ModelPush/GradPush serve the parameter-server
// baselines; Labels exists for the label-sharing ablation; Ack and
// ErrorMsg close control loops; Rejoin/RejoinAck re-attach a platform
// that lost its connection mid-session (dropout recovery); the
// ReplBase/ReplMeta/ReplRecord/ReplAck quartet carries the
// leader→follower replication stream (bootstrap snapshot, session
// metadata, per-step WAL records, watermark acks); InferRequest/
// InferResponse carry the multi-tenant serving path (platform-side
// front-half activations in, server-side back-half logits out).
const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgActivations
	MsgLogits
	MsgLossGrad
	MsgCutGrad
	MsgModelPull
	MsgModelPush
	MsgGradPush
	MsgLabels
	MsgAck
	MsgErrorMsg
	MsgEvalActivations
	MsgEvalLogits
	MsgBye
	MsgRejoin
	MsgRejoinAck
	MsgReplBase
	MsgReplMeta
	MsgReplRecord
	MsgReplAck
	MsgInferRequest
	MsgInferResponse
	MsgHealth

	msgTypeCount = iota + 1
)

var msgTypeNames = map[MsgType]string{
	MsgHello:           "hello",
	MsgHelloAck:        "hello-ack",
	MsgActivations:     "activations",
	MsgLogits:          "logits",
	MsgLossGrad:        "loss-grad",
	MsgCutGrad:         "cut-grad",
	MsgModelPull:       "model-pull",
	MsgModelPush:       "model-push",
	MsgGradPush:        "grad-push",
	MsgLabels:          "labels",
	MsgAck:             "ack",
	MsgErrorMsg:        "error",
	MsgEvalActivations: "eval-activations",
	MsgEvalLogits:      "eval-logits",
	MsgBye:             "bye",
	MsgRejoin:          "rejoin",
	MsgRejoinAck:       "rejoin-ack",
	MsgReplBase:        "repl-base",
	MsgReplMeta:        "repl-meta",
	MsgReplRecord:      "repl-record",
	MsgReplAck:         "repl-ack",
	MsgInferRequest:    "infer-request",
	MsgInferResponse:   "infer-response",
	MsgHealth:          "health",
}

// String names the message type for diagnostics.
func (t MsgType) String() string {
	if s, ok := msgTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Valid reports whether t is a known message type.
func (t MsgType) Valid() bool {
	_, ok := msgTypeNames[t]
	return ok
}

// Message is one framed protocol unit.
type Message struct {
	Type     MsgType
	Platform uint32 // sending/target platform id (0 = server)
	Round    uint32 // training round the message belongs to
	Payload  []byte
}

// Framing constants.
const (
	magic uint16 = 0x5D17 // "SplIT"
	// version 2: tensor payload counts widened from one byte to uint16
	// (the old encoding silently truncated counts above 255).
	// version 3: the Rejoin/RejoinAck dropout-recovery control pair
	// joined the vocabulary. A version-2 peer would reject the new
	// types with ErrBadType only when a dropout actually happened —
	// mid-training, after hours of work — so the version bump makes
	// mixed deployments fail fast with ErrBadVersion at the first
	// frame instead.
	// version 4: the ReplBase/ReplMeta/ReplRecord/ReplAck replication
	// stream joined (leader → warm-follower state streaming). Same
	// rationale as v3: a mixed leader/follower pair must fail at the
	// first frame, not when a failover is already in progress.
	// version 5: the InferRequest/InferResponse serving pair joined
	// (multi-tenant split inference, internal/serve). An old platform
	// dialing a serving endpoint — or a new inference client dialing an
	// old trainer — fails at the first frame instead of desynchronizing
	// on an unknown type mid-stream.
	// version 6: InferRequest carries a per-request id and a deadline
	// budget (so the server can shed already-expired work instead of
	// computing it), serving rejections became structured error payloads
	// (code + retry-after hint), and the MsgHealth probe joined the
	// vocabulary. The infer-request payload layout changed shape, so a
	// v5 peer must fail at the first frame, not mis-decode a deadline as
	// tensor bytes.
	version uint8 = 6

	// FrameVersion is the exported frame version, for protocols that
	// negotiate it explicitly in their application-level handshakes
	// (internal/paramserver embeds it in its hello string and fails
	// fast with a FrameSkewError on mismatch). It always equals the
	// framing layer's own version byte.
	FrameVersion = int(version)

	// headerSize: magic(2) + version(1) + type(1) + platform(4) +
	// round(4) + payloadLen(4) + crc(4).
	headerSize = 20

	// maxPayload caps a frame at 256 MiB, far above any tensor batch
	// this system ships but small enough to stop a corrupt length from
	// allocating unbounded memory.
	maxPayload = 1 << 28
)

// Sentinel errors.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: protocol version mismatch")
	ErrBadType    = errors.New("wire: unknown message type")
	ErrTooLarge   = errors.New("wire: payload exceeds limit")
	ErrChecksum   = errors.New("wire: payload checksum mismatch")
)

// FrameSkewError reports a frame-version mismatch detected by an
// application-level handshake (as opposed to ErrBadVersion, which the
// framing layer raises on a raw frame byte). Got < 0 means the peer
// declared no version at all — a pre-negotiation build. It unwraps to
// ErrBadVersion so errors.Is sees one version-skew family.
type FrameSkewError struct {
	Got, Want int
}

// Error renders the mismatch.
func (e *FrameSkewError) Error() string {
	if e.Got < 0 {
		return fmt.Sprintf("wire: peer declared no frame version (predates negotiation), want %d", e.Want)
	}
	return fmt.Sprintf("wire: peer frame version %d, want %d", e.Got, e.Want)
}

// Unwrap folds the typed error into the ErrBadVersion family.
func (e *FrameSkewError) Unwrap() error { return ErrBadVersion }

// FrameField renders the ";frame=N" hello-string suffix through which
// application-level handshakes declare the wire frame version they were
// built against. Append it last: CutFrameField splits on the first
// occurrence and treats everything after it as the version number.
func FrameField() string { return fmt.Sprintf(";frame=%d", FrameVersion) }

// CutFrameField splits a hello meta string into its base configuration
// and the declared frame version, validating the version against this
// build's FrameVersion. A missing or malformed field is reported as a
// *FrameSkewError with Got < 0 — the peer predates negotiation — so
// protocols that adopt FrameField fail fast against unversioned peers
// instead of mis-reporting the skew as a configuration mismatch.
func CutFrameField(meta string) (string, error) {
	base, val, ok := strings.Cut(meta, ";frame=")
	if !ok {
		return meta, &FrameSkewError{Got: -1, Want: FrameVersion}
	}
	got, err := strconv.Atoi(val)
	if err != nil || got < 0 {
		return base, &FrameSkewError{Got: -1, Want: FrameVersion}
	}
	if got != FrameVersion {
		return base, &FrameSkewError{Got: got, Want: FrameVersion}
	}
	return base, nil
}

// WireSize returns the exact number of bytes m occupies on the wire.
func (m *Message) WireSize() int { return headerSize + len(m.Payload) }

// WireSizeFor returns the on-the-wire size of a message with the given
// payload length without building it.
func WireSizeFor(payloadLen int) int { return headerSize + payloadLen }

// Write frames m onto w, returning the bytes written.
func (m *Message) Write(w io.Writer) (int, error) {
	if !m.Type.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrBadType, m.Type)
	}
	if len(m.Payload) > maxPayload {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(m.Payload))
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint16(hdr[0:], magic)
	hdr[2] = version
	hdr[3] = byte(m.Type)
	binary.LittleEndian.PutUint32(hdr[4:], m.Platform)
	binary.LittleEndian.PutUint32(hdr[8:], m.Round)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(m.Payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(m.Payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wire: writing header: %w", err)
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return headerSize, fmt.Errorf("wire: writing payload: %w", err)
		}
	}
	return headerSize + len(m.Payload), nil
}

// Read parses one frame from r, returning the message and the bytes
// consumed. The payload is freshly allocated; transports on the
// steady-state round path use ReadPooled instead.
func Read(r io.Reader) (*Message, int, error) {
	return readFrame(r, nil)
}

// ReadPooled parses one frame from r, drawing the payload buffer from
// pool. The caller (or whoever it hands the message to) owns the
// payload and should release it with ReleasePayload once decoded, which
// is what makes the receive path allocation-free in steady state.
func ReadPooled(r io.Reader, pool *BufferPool) (*Message, int, error) {
	return readFrame(r, pool)
}

func readFrame(r io.Reader, pool *BufferPool) (*Message, int, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// Propagate EOF unwrapped so callers can detect clean shutdown.
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("wire: reading header: %w", err)
	}
	if binary.LittleEndian.Uint16(hdr[0:]) != magic {
		return nil, headerSize, ErrBadMagic
	}
	if hdr[2] != version {
		return nil, headerSize, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[2], version)
	}
	t := MsgType(hdr[3])
	if !t.Valid() {
		return nil, headerSize, fmt.Errorf("%w: %d", ErrBadType, hdr[3])
	}
	plen := binary.LittleEndian.Uint32(hdr[12:])
	if plen > maxPayload {
		return nil, headerSize, fmt.Errorf("%w: %d bytes", ErrTooLarge, plen)
	}
	m := &Message{
		Type:     t,
		Platform: binary.LittleEndian.Uint32(hdr[4:]),
		Round:    binary.LittleEndian.Uint32(hdr[8:]),
	}
	if plen > 0 {
		if pool != nil {
			m.Payload = pool.Get(int(plen))[:plen]
		} else {
			m.Payload = make([]byte, plen)
		}
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return nil, headerSize, fmt.Errorf("wire: reading payload: %w", err)
		}
	}
	if crc32.ChecksumIEEE(m.Payload) != binary.LittleEndian.Uint32(hdr[16:]) {
		return nil, headerSize + int(plen), ErrChecksum
	}
	return m, headerSize + int(plen), nil
}
