package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"medsplit/internal/tensor"
)

// Payload helpers. The split protocol moves tensors (activations and
// gradients) and, in the label-sharing ablation, integer label vectors.
// Payloads are self-describing: a one-byte kind, a count, then the
// items. Tensor payloads carry a uint16 count — the original one-byte
// count silently truncated len(ts) above 255, which an L1 sync of a
// deep front model can exceed.

// payload kinds.
const (
	payloadTensors byte = 1
	payloadLabels  byte = 2
	payloadText    byte = 3
	payloadInfer   byte = 4
	payloadErr     byte = 5
	payloadHealth  byte = 6
)

// tensorsHeaderSize is the tensor payload prefix: kind byte + uint16
// tensor count.
const tensorsHeaderSize = 3

// MaxTensorsPerPayload is the largest tensor count one payload encodes.
const MaxTensorsPerPayload = 1<<16 - 1

// ErrBadPayload is returned when a payload cannot be decoded.
var ErrBadPayload = errors.New("wire: bad payload")

// EncodeTensors packs tensors into a freshly allocated payload.
// Steady-state paths should prefer EncodeTensorsInto with a pooled
// buffer (see BufferPool).
func EncodeTensors(ts ...*tensor.Tensor) []byte {
	size := tensorsHeaderSize
	for _, t := range ts {
		size += t.EncodedSize()
	}
	return EncodeTensorsInto(make([]byte, 0, size), ts...)
}

// EncodeTensorsInto appends the tensor payload to buf and returns the
// extended slice, growing it only when capacity is short. It panics
// when more than MaxTensorsPerPayload tensors are passed — silently
// truncating the count would desynchronize the two protocol ends.
func EncodeTensorsInto(buf []byte, ts ...*tensor.Tensor) []byte {
	if len(ts) > MaxTensorsPerPayload {
		panic(fmt.Sprintf("wire: %d tensors exceed the payload maximum %d", len(ts), MaxTensorsPerPayload))
	}
	var hdr [tensorsHeaderSize]byte
	hdr[0] = payloadTensors
	binary.LittleEndian.PutUint16(hdr[1:], uint16(len(ts)))
	buf = append(buf, hdr[:]...)
	for _, t := range ts {
		buf = t.AppendTo(buf)
	}
	return buf
}

// TensorsPayloadSize returns the payload size EncodeTensors would
// produce for tensors of the given shapes.
func TensorsPayloadSize(shapes ...[]int) int {
	size := tensorsHeaderSize
	for _, s := range shapes {
		size += tensor.EncodedSizeFor(s...)
	}
	return size
}

// DecodeTensors unpacks a payload built by EncodeTensors into freshly
// allocated tensors.
func DecodeTensors(buf []byte) ([]*tensor.Tensor, error) {
	return DecodeTensorsInto(nil, buf)
}

// DecodeTensorsInto unpacks a payload built by EncodeTensors, reusing
// the tensors (and the slice) of dst position by position: dst[i]'s
// storage backs the i-th decoded tensor when its capacity suffices.
// dst may be nil or shorter than the payload's count; missing positions
// allocate. The returned slice is dst (possibly grown) truncated to the
// decoded count, and never aliases buf — the caller may recycle the
// payload buffer as soon as DecodeTensorsInto returns.
func DecodeTensorsInto(dst []*tensor.Tensor, buf []byte) ([]*tensor.Tensor, error) {
	if len(buf) < tensorsHeaderSize || buf[0] != payloadTensors {
		return nil, fmt.Errorf("%w: not a tensor payload", ErrBadPayload)
	}
	n := int(binary.LittleEndian.Uint16(buf[1:]))
	buf = buf[tensorsHeaderSize:]
	for len(dst) < n {
		dst = append(dst, nil)
	}
	out := dst[:n]
	for i := 0; i < n; i++ {
		t, rest, err := tensor.DecodeInto(out[i], buf)
		if err != nil {
			return nil, fmt.Errorf("%w: tensor %d: %v", ErrBadPayload, i, err)
		}
		out[i] = t
		buf = rest
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(buf))
	}
	return out, nil
}

// EncodeLabelsInto appends a label payload (a label vector) to buf and
// returns the extended slice.
func EncodeLabelsInto(buf []byte, labels []int) []byte {
	var tmp [4]byte
	buf = append(buf, payloadLabels)
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(labels)))
	buf = append(buf, tmp[:]...)
	for _, lab := range labels {
		binary.LittleEndian.PutUint32(tmp[:], uint32(lab))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// DecodeLabelsInto unpacks a label payload, reusing dst's storage when
// its capacity suffices. The result never aliases buf.
func DecodeLabelsInto(dst []int, buf []byte) ([]int, error) {
	if len(buf) < 5 || buf[0] != payloadLabels {
		return nil, fmt.Errorf("%w: not a label payload", ErrBadPayload)
	}
	n := int(binary.LittleEndian.Uint32(buf[1:]))
	buf = buf[5:]
	if len(buf) != 4*n {
		return nil, fmt.Errorf("%w: %d bytes for %d labels", ErrBadPayload, len(buf), n)
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]int, n)
	}
	for i := range dst {
		dst[i] = int(int32(binary.LittleEndian.Uint32(buf[4*i:])))
	}
	return dst, nil
}

// MaxTenantNameLen bounds a tenant name on the wire (one length byte).
const MaxTenantNameLen = 255

// inferHeaderSize is the infer-request prefix before the tenant name:
// kind byte + name length byte. After the name come a uint32 checkpoint
// generation, a uint64 request id, a uint32 deadline budget in
// microseconds, then an embedded tensor payload.
const inferHeaderSize = 2

// inferFixedTail is the fixed-size header portion after the tenant
// name: generation(4) + request id(8) + deadline budget(4).
const inferFixedTail = 16

// InferHeader is the routing/robustness header of an inference request.
type InferHeader struct {
	// Tenant names the model the request targets. Required on the wire,
	// at most MaxTenantNameLen bytes.
	Tenant string
	// Generation pins the checkpoint generation the client expects to
	// be served from (0 = whatever the server currently has loaded).
	Generation uint32
	// RequestID identifies the logical request across retries and
	// hedges: every resend of the same Infer call carries the same id,
	// so server-side logs and shed decisions can tell "one client
	// retrying" from "many clients".
	RequestID uint64
	// DeadlineMicros is the client's remaining per-request budget at
	// send time, in microseconds (0 = no deadline). The server arms a
	// local deadline of arrival + budget and sheds the request instead
	// of computing it once that passes — a relative budget rather than
	// an absolute timestamp, so nothing depends on clock sync between
	// hospital platforms and the aggregation server.
	DeadlineMicros uint32
}

// InferRequestPayloadSize returns the payload size EncodeInferRequest
// produces for the given header and tensor shapes.
func InferRequestPayloadSize(tenant string, shapes ...[]int) int {
	return inferHeaderSize + len(tenant) + inferFixedTail + TensorsPayloadSize(shapes...)
}

// EncodeInferRequestInto appends an inference-request payload to buf:
// the header, then the cut-layer activation tensors. It panics on an
// over-long tenant name — serving configs are validated long before a
// request is built, so an oversized name here is a programming error.
func EncodeInferRequestInto(buf []byte, h InferHeader, ts ...*tensor.Tensor) []byte {
	if len(h.Tenant) == 0 || len(h.Tenant) > MaxTenantNameLen {
		panic(fmt.Sprintf("wire: tenant name %d bytes outside [1,%d]", len(h.Tenant), MaxTenantNameLen))
	}
	buf = append(buf, payloadInfer, byte(len(h.Tenant)))
	buf = append(buf, h.Tenant...)
	buf = binary.LittleEndian.AppendUint32(buf, h.Generation)
	buf = binary.LittleEndian.AppendUint64(buf, h.RequestID)
	buf = binary.LittleEndian.AppendUint32(buf, h.DeadlineMicros)
	return EncodeTensorsInto(buf, ts...)
}

// EncodeInferRequest packs an inference request into a freshly
// allocated payload.
func EncodeInferRequest(h InferHeader, ts ...*tensor.Tensor) []byte {
	size := inferHeaderSize + len(h.Tenant) + inferFixedTail + tensorsHeaderSize
	for _, t := range ts {
		size += t.EncodedSize()
	}
	return EncodeInferRequestInto(make([]byte, 0, size), h, ts...)
}

// DecodeInferRequest unpacks an inference-request header and returns
// the embedded tensor payload unparsed, so the receiver can route on
// the tenant before paying for the tensor decode (and decode into that
// tenant's isolated scratch). The returned tenant string never aliases
// buf; the tensor payload does.
func DecodeInferRequest(buf []byte) (h InferHeader, tensors []byte, err error) {
	if len(buf) < inferHeaderSize || buf[0] != payloadInfer {
		return h, nil, fmt.Errorf("%w: not an infer-request payload", ErrBadPayload)
	}
	nameLen := int(buf[1])
	if nameLen == 0 || len(buf) < inferHeaderSize+nameLen+inferFixedTail {
		return h, nil, fmt.Errorf("%w: infer request truncated at header", ErrBadPayload)
	}
	h.Tenant = string(buf[inferHeaderSize : inferHeaderSize+nameLen])
	rest := buf[inferHeaderSize+nameLen:]
	h.Generation = binary.LittleEndian.Uint32(rest)
	h.RequestID = binary.LittleEndian.Uint64(rest[4:])
	h.DeadlineMicros = binary.LittleEndian.Uint32(rest[12:])
	return h, rest[inferFixedTail:], nil
}

// ErrCode classifies a serving-tier rejection on the wire, so clients
// can decide retryability without parsing error text. The zero value
// is deliberately "unknown": an old-style plain-text rejection decodes
// to it and clients treat it as non-retryable.
type ErrCode uint8

// Serving rejection codes. Retryable (the condition is expected to
// clear): CodeOverloaded, CodeExpired, CodeDraining. Non-retryable (the
// request itself is wrong, or the deployment is misconfigured):
// CodeUnknownTenant, CodeGenerationMismatch, CodeBadRequest,
// CodeInternal.
const (
	CodeUnknown ErrCode = iota
	CodeOverloaded
	CodeExpired
	CodeUnknownTenant
	CodeGenerationMismatch
	CodeDraining
	CodeBadRequest
	CodeInternal
)

var errCodeNames = map[ErrCode]string{
	CodeUnknown:            "unknown",
	CodeOverloaded:         "overloaded",
	CodeExpired:            "deadline-expired",
	CodeUnknownTenant:      "unknown-tenant",
	CodeGenerationMismatch: "generation-mismatch",
	CodeDraining:           "draining",
	CodeBadRequest:         "bad-request",
	CodeInternal:           "internal",
}

// String names the code for diagnostics.
func (c ErrCode) String() string {
	if s, ok := errCodeNames[c]; ok {
		return s
	}
	return fmt.Sprintf("errcode(%d)", uint8(c))
}

// Retryable reports whether a client should retry after this code: the
// server expects the condition to clear (queue drains, drain finishes,
// the next attempt carries a fresh deadline).
func (c ErrCode) Retryable() bool {
	switch c {
	case CodeOverloaded, CodeExpired, CodeDraining:
		return true
	}
	return false
}

// errHeaderSize is the serve-error payload prefix: kind byte + code
// byte + uint32 retry-after hint in microseconds; the message text
// fills the rest.
const errHeaderSize = 6

// EncodeServeError packs a structured serving rejection: a machine-
// readable code, a retry-after hint (0 = no hint) and the human-
// readable message.
func EncodeServeError(code ErrCode, retryAfter time.Duration, msg string) []byte {
	buf := make([]byte, 0, errHeaderSize+len(msg))
	buf = append(buf, payloadErr, byte(code))
	var micros uint32
	if retryAfter > 0 {
		if us := retryAfter / time.Microsecond; us < 1<<32 {
			micros = uint32(us)
		} else {
			micros = 1<<32 - 1
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, micros)
	return append(buf, msg...)
}

// DecodeServeError unpacks a payload built by EncodeServeError.
func DecodeServeError(buf []byte) (code ErrCode, retryAfter time.Duration, msg string, err error) {
	if len(buf) < errHeaderSize || buf[0] != payloadErr {
		return 0, 0, "", fmt.Errorf("%w: not a serve-error payload", ErrBadPayload)
	}
	code = ErrCode(buf[1])
	retryAfter = time.Duration(binary.LittleEndian.Uint32(buf[2:])) * time.Microsecond
	return code, retryAfter, string(buf[errHeaderSize:]), nil
}

// HealthState is one tenant's serving state on the wire.
type HealthState uint8

// Tenant health states, ordered by degradation: a serving tenant
// accepts and computes, a degraded one still answers but is shedding or
// running its fallback model, a draining one rejects new work while
// in-flight batches finish.
const (
	HealthServing HealthState = iota
	HealthDegraded
	HealthDraining
)

var healthStateNames = map[HealthState]string{
	HealthServing:  "serving",
	HealthDegraded: "degraded",
	HealthDraining: "draining",
}

// String names the state.
func (s HealthState) String() string {
	if n, ok := healthStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("health(%d)", uint8(s))
}

// TenantHealth is one tenant's entry in a MsgHealth response.
type TenantHealth struct {
	// Tenant is the tenant name.
	Tenant string
	// State is the tenant's current serving state.
	State HealthState
	// QueueDepth is the pending admission-queue length at snapshot
	// time.
	QueueDepth uint32
	// Generation is the checkpoint generation the warm model serves.
	Generation uint32
	// RetryAfterMicros is the server's backoff hint for shed requests
	// (0 = none).
	RetryAfterMicros uint32
}

// healthEntryFixed is the fixed bytes per health entry beyond the
// name: state(1) + queue depth(4) + generation(4) + retry-after(4).
const healthEntryFixed = 13

// EncodeHealth packs a tenant health snapshot. Entries should be in a
// deterministic order (the serving tier sorts by tenant name). Panics
// on more than 255 entries or an over-long tenant name — both are
// validated at configuration time.
func EncodeHealth(entries []TenantHealth) []byte {
	if len(entries) > 255 {
		panic(fmt.Sprintf("wire: %d health entries exceed 255", len(entries)))
	}
	size := 2
	for _, e := range entries {
		size += 1 + len(e.Tenant) + healthEntryFixed
	}
	buf := make([]byte, 0, size)
	buf = append(buf, payloadHealth, byte(len(entries)))
	for _, e := range entries {
		if len(e.Tenant) == 0 || len(e.Tenant) > MaxTenantNameLen {
			panic(fmt.Sprintf("wire: tenant name %d bytes outside [1,%d]", len(e.Tenant), MaxTenantNameLen))
		}
		buf = append(buf, byte(len(e.Tenant)))
		buf = append(buf, e.Tenant...)
		buf = append(buf, byte(e.State))
		buf = binary.LittleEndian.AppendUint32(buf, e.QueueDepth)
		buf = binary.LittleEndian.AppendUint32(buf, e.Generation)
		buf = binary.LittleEndian.AppendUint32(buf, e.RetryAfterMicros)
	}
	return buf
}

// DecodeHealth unpacks a payload built by EncodeHealth. The returned
// entries never alias buf.
func DecodeHealth(buf []byte) ([]TenantHealth, error) {
	if len(buf) < 2 || buf[0] != payloadHealth {
		return nil, fmt.Errorf("%w: not a health payload", ErrBadPayload)
	}
	n := int(buf[1])
	buf = buf[2:]
	entries := make([]TenantHealth, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) < 1 {
			return nil, fmt.Errorf("%w: health entry %d truncated", ErrBadPayload, i)
		}
		nameLen := int(buf[0])
		if nameLen == 0 || len(buf) < 1+nameLen+healthEntryFixed {
			return nil, fmt.Errorf("%w: health entry %d truncated", ErrBadPayload, i)
		}
		e := TenantHealth{Tenant: string(buf[1 : 1+nameLen])}
		rest := buf[1+nameLen:]
		e.State = HealthState(rest[0])
		e.QueueDepth = binary.LittleEndian.Uint32(rest[1:])
		e.Generation = binary.LittleEndian.Uint32(rest[5:])
		e.RetryAfterMicros = binary.LittleEndian.Uint32(rest[9:])
		entries = append(entries, e)
		buf = rest[healthEntryFixed:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after health entries", ErrBadPayload, len(buf))
	}
	return entries, nil
}

// EncodeText packs a short string (error messages, hello metadata).
func EncodeText(s string) []byte {
	buf := make([]byte, 0, 1+len(s))
	buf = append(buf, payloadText)
	return append(buf, s...)
}

// DecodeText unpacks a payload built by EncodeText.
func DecodeText(buf []byte) (string, error) {
	if len(buf) < 1 || buf[0] != payloadText {
		return "", fmt.Errorf("%w: not a text payload", ErrBadPayload)
	}
	return string(buf[1:]), nil
}
