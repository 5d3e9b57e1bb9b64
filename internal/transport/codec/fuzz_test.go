package codec_test

import (
	"fmt"
	"testing"

	"altrun/internal/transport"
	"altrun/internal/transport/codec"

	// Self-registering application codecs: linking them puts their spec
	// frames (tags 202/203) under fuzz alongside the protocol messages.
	_ "altrun/apps/choo"
	_ "altrun/internal/stm"
)

// FuzzDecodeEnvelope holds the codec to its contract on arbitrary
// input: malformed or truncated frames return an error — never a panic
// — and any frame that decodes must survive a re-encode/re-decode
// round trip unchanged (the codec is a fixed point on its own output).
// Every registered frame shape is seeded in the binary encoding, plus
// truncations of it, and in the retired gob framing (version 0x00),
// which must now be rejected like any unknown version. The checked-in
// corpus under testdata/fuzz is a fixed set of older inputs, kept as
// regression seeds: its seed-01..04 frames carry the retired tags 2..5
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
