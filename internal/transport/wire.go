package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"altrun/internal/ids"
)

// The wire format: a hand-rolled length-prefixed binary encoding for
// registered payload types, pooled frame buffers, and a single
// conn.Write per frame. The encoding is total over what may cross the
// wire: a payload type with no registered codec is an encode error, so
// the sender sees Send return false instead of a peer decoding a shape
// it may not know.
//
// Frame layout (after the 4-byte big-endian body length):
//
//	[ver 0x01][tag][from uvarint][to.Node uvarint][to.Port string][payload]
//
// Any other version byte is rejected. The payload encoding is the
// registered codec's own; decoded byte slices may alias the received
// frame buffer (which is never reused), so checkpoint pages cross the
// receive path without a copy.
//
// Registration is centralized in internal/transport/codec: protocol
// packages (consensus, checkpoint, device) get their binary codec from
// that one package, so the sim and TCP fabrics cannot drift. The
// transport itself registers only []byte — the raw-bytes shape every
// fabric test uses.

// wireVersion is the frame version byte.
const wireVersion = 0x01

func init() {
	// The transport's own hot shape: raw bytes (fabric tests, legacy
	// rfork images). Protocol types register in internal/transport/codec.
	RegisterWire(WireCodec{
		Tag:  TagBytes,
		Type: reflect.TypeOf([]byte(nil)),
		Append: func(payload any, dst []byte) []byte {
			return AppendBytes(dst, payload.([]byte))
		},
		Decode: func(data []byte) (any, error) {
			r := NewWireReader(data)
			b := r.Bytes()
			if err := r.Err(); err != nil {
				return nil, err
			}
			return b, nil
		},
	})
}

// TagBytes is the wire tag for raw []byte payloads, registered by the
// transport itself.
const TagBytes byte = 1

// WireCodec is one payload type's hand-rolled encoding.
type WireCodec struct {
	// Tag identifies the type on the wire (unique; 1..199 are reserved
	// for internal protocol packages, 200..255 for applications).
	Tag byte
	// Type is the concrete payload type this codec handles.
	Type reflect.Type
	// Append appends the payload's encoding to dst and returns it.
	Append func(payload any, dst []byte) []byte
	// Decode parses one payload. data may be retained (it aliases the
	// received frame buffer, which is never reused).
	Decode func(data []byte) (any, error)
}

var (
	wireMu     sync.RWMutex
	wireByType = make(map[reflect.Type]*WireCodec)
	wireByTag  [256]*WireCodec
)

// RegisterWire installs a binary codec for one payload type. Meant to
// be called from init functions (internal/transport/codec for protocol
// packages; applications may claim tags 200..255). Registering a
// duplicate tag or type panics: silent drift between fabrics is exactly
// what centralized registration exists to prevent.
func RegisterWire(c WireCodec) {
	if c.Type == nil || c.Append == nil || c.Decode == nil {
		panic("transport: RegisterWire needs Type, Append, and Decode")
	}
	if c.Tag == 0 {
		// Tags share no byte position with the frame version, but a zero
		// tag is almost certainly an unset field.
		panic("transport: wire tag 0 is reserved (unset)")
	}
	wireMu.Lock()
	defer wireMu.Unlock()
	if wireByTag[c.Tag] != nil {
		panic(fmt.Sprintf("transport: wire tag %d already registered (%v)", c.Tag, wireByTag[c.Tag].Type))
	}
	if _, ok := wireByType[c.Type]; ok {
		panic(fmt.Sprintf("transport: wire codec for %v already registered", c.Type))
	}
	cc := c
	wireByTag[c.Tag] = &cc
	wireByType[c.Type] = &cc
}

func wireForPayload(payload any) (*WireCodec, bool) {
	if payload == nil {
		return nil, false
	}
	wireMu.RLock()
	c, ok := wireByType[reflect.TypeOf(payload)]
	wireMu.RUnlock()
	return c, ok
}

func wireForTag(tag byte) (*WireCodec, bool) {
	wireMu.RLock()
	c := wireByTag[tag]
	wireMu.RUnlock()
	return c, c != nil
}

// ---------------------------------------------------------------------
// Append/read primitives. Exported so internal/transport/codec (and
// application codecs) build payload encodings from the same, bounds-
// checked vocabulary.

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends v zigzag-encoded (safe for negative values).
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendBytes appends a uvarint length followed by the raw bytes.
func AppendBytes(dst, p []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// AppendString appends s like AppendBytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ErrWireTruncated is returned when a frame ends mid-field.
var ErrWireTruncated = errors.New("transport: truncated wire frame")

// WireReader walks a payload encoding, remembering the first error so
// decoders can read a whole struct and check Err once. All reads are
// bounds-checked: malformed or truncated frames produce errors, never
// panics (the fuzz harness holds the codec to that).
type WireReader struct {
	data []byte
	err  error
}

// NewWireReader wraps data for reading.
func NewWireReader(data []byte) *WireReader { return &WireReader{data: data} }

// Err returns the first decode error, if any.
func (r *WireReader) Err() error { return r.err }

// Remaining returns the unread byte count.
func (r *WireReader) Remaining() int { return len(r.data) }

func (r *WireReader) fail() {
	if r.err == nil {
		r.err = ErrWireTruncated
	}
}

// Uvarint reads one unsigned LEB128 value.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Varint reads one zigzag-encoded value.
func (r *WireReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Bytes reads a length-prefixed byte slice. The result aliases the
// frame buffer — callers that outlive the frame own the frame too.
func (r *WireReader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)) {
		r.fail()
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// String reads a length-prefixed string (copies, as strings must).
func (r *WireReader) String() string { return string(r.Bytes()) }

// ---------------------------------------------------------------------
// Envelope framing.

// AppendEnvelope appends env's frame body (everything after the 4-byte
// length prefix) to dst. A payload type with no registered codec is an
// error. binaryPath is true whenever err is nil: there is no other
// encoding any more, and the result stays for callers that assert it.
func AppendEnvelope(dst []byte, env Envelope) (out []byte, binaryPath bool, err error) {
	c, ok := wireForPayload(env.Payload)
	if !ok {
		return nil, false, fmt.Errorf("transport: no wire codec registered for %T", env.Payload)
	}
	dst = append(dst, wireVersion, c.Tag)
	dst = AppendUvarint(dst, uint64(env.From))
	dst = AppendUvarint(dst, uint64(env.To.Node))
	dst = AppendString(dst, env.To.Port)
	return c.Append(env.Payload, dst), true, nil
}

// DecodeEnvelope parses a frame body produced by AppendEnvelope.
// Decoded byte-slice payload fields may alias body.
func DecodeEnvelope(body []byte) (Envelope, error) {
	if len(body) == 0 {
		return Envelope{}, ErrWireTruncated
	}
	if body[0] != wireVersion {
		return Envelope{}, fmt.Errorf("transport: unknown frame version %d", body[0])
	}
	if len(body) < 2 {
		return Envelope{}, ErrWireTruncated
	}
	c, ok := wireForTag(body[1])
	if !ok {
		return Envelope{}, fmt.Errorf("transport: unknown wire tag %d", body[1])
	}
	r := NewWireReader(body[2:])
	var env Envelope
	env.From = ids.NodeID(r.Uvarint())
	env.To.Node = ids.NodeID(r.Uvarint())
	env.To.Port = r.String()
	if err := r.Err(); err != nil {
		return Envelope{}, err
	}
	payload, err := c.Decode(r.data)
	if err != nil {
		return Envelope{}, fmt.Errorf("transport: tag %d payload: %w", body[1], err)
	}
	env.Payload = payload
	return env, nil
}

// ---------------------------------------------------------------------
// Frame buffer pool (encode side only; receive buffers are owned by the
// decoded payload, which may alias them, and are never reused).

var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// getFrame returns a pooled buffer with the 4-byte length prefix
// reserved.
func getFrame() *[]byte {
	bp := framePool.Get().(*[]byte)
	*bp = append((*bp)[:0], 0, 0, 0, 0)
	return bp
}

// putFrame returns a frame buffer to the pool. Oversized buffers (a
// shipped checkpoint image) are dropped so the pool holds only
// control-message-sized memory.
func putFrame(bp *[]byte) {
	if bp == nil || cap(*bp) > 64<<10 {
		return
	}
	framePool.Put(bp)
}
