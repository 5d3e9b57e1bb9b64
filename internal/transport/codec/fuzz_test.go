package codec_test

import (
	"encoding/hex"
	"fmt"
	"testing"

	"altrun/internal/transport"
	"altrun/internal/transport/codec"
)

// retiredFrames are the last binary frames written for payload shapes
// whose tags are now reserved: the delta checkpoint shipping messages
// (tags 12..15) and altserved's typed stm and choo rfork specs (tags
// 202/203). An old peer may still send them; each must be refused.
var retiredFrames = []string{
	// ShipFull (12)
	"010c01020572666f726b0a72666f726b2f6a736f6e020e0972666f726b2d6a6f621020103031323334353637383961626364656601036c656e18",
	// ShipDelta (13)
	"010d01020572666f726b0a72666f726b2f6a736f6e02100972666f726b2d6a6f6201036c656e0a01020864656c7461207067",
	// ShipNak (14)
	"010e02010972666f726b2f63746c0a72666f726b2f6a736f6e02",
	// BaseInvalidate (15)
	"010f01020572666f726b0a72666f726b2f6a736f6e",
	// stm TxnSpec (202)
	"01ca01020572666f726b5420081080808080808080f03fb3e6cc99b3e6ccf93f060e904e04",
	// choo ProgSpec (203)
	"01cb01020572666f726b123b70726f632061207b2078203a3d20313b207d0a70726f632062207b2078203a3d20323b207d0a63686f6f28612c2062293b0a7072696e7420783b0a904e04",
}

// FuzzDecodeEnvelope holds the codec to its contract on arbitrary
// input: malformed or truncated frames return an error — never a panic
// — and any frame that decodes must survive a re-encode/re-decode
// round trip unchanged (the codec is a fixed point on its own output).
// Every registered frame shape is seeded in the binary encoding, plus
// truncations of it, and in the retired gob framing (version 0x00),
// which must now be rejected like any unknown version. The frames of
// retired payload shapes (retiredFrames) are seeded the same way, and
// each must be rejected as written. The checked-in corpus under
// testdata/fuzz is a fixed set of older inputs, kept as regression
// seeds: its seed-01..04 frames carry the retired tags 2..5
// and its seed-*-gob frames the retired version 0x00; both must now be
// rejected cleanly.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, env := range codec.SeedEnvelopes() {
		body, _, err := transport.AppendEnvelope(nil, env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		// Truncations of a valid frame are the interesting malformed
		// inputs: every length prefix gets a chance to run past the end.
		f.Add(body[:len(body)/2])
		f.Add(body[:len(body)*2/3])
		f.Add(body[:len(body)-1])

		gobFrame := gobFrameBody(env)
		if _, err := transport.DecodeEnvelope(gobFrame); err == nil {
			f.Fatalf("%T: gob frame decoded; version 0x00 must be rejected", env.Payload)
		}
		f.Add(gobFrame)
	}
	for _, h := range retiredFrames {
		frame, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		if env, err := transport.DecodeEnvelope(frame); err == nil {
			f.Fatalf("retired tag %d decoded as %T", frame[1], env.Payload)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:len(frame)*2/3])
		f.Add(frame[:len(frame)-1])
		// The same frame under the retired gob version byte.
		f.Add(append([]byte{0x00}, frame[1:]...))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})       // retired gob version, empty stream
	f.Add([]byte{0x01})       // binary frame with no tag
	f.Add([]byte{0x01, 0xFF}) // unknown tag
	f.Add([]byte{0x42})       // unknown version

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := transport.DecodeEnvelope(data)
		if err != nil {
			return // malformed input rejected cleanly: the contract held
		}
		if data[0] != 0x01 {
			t.Fatalf("frame version %d decoded", data[0])
		}
		body, _, err := transport.AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v (%+v)", err, env)
		}
		env2, err := transport.DecodeEnvelope(body)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v (%+v)", err, env)
		}
		if fmt.Sprintf("%+v", env) != fmt.Sprintf("%+v", env2) {
			t.Fatalf("round trip drift:\n was %+v\n now %+v", env, env2)
		}
	})
}
