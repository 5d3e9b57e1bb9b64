package codec_test

import (
	"bytes"
	"encoding/gob"
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
// Every registered frame shape is seeded in the binary and the gob
// (version 0x00) encodings, plus truncations of the binary frame. The
// checked-in corpus under testdata/fuzz is a fixed set of older inputs,
// kept as regression seeds: its seed-01..04 frames carry the retired
// tags 2..5, which must now be rejected cleanly.
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

		var gobFrame bytes.Buffer
		gobFrame.WriteByte(0x00)
		if err := gob.NewEncoder(&gobFrame).Encode(&env); err != nil {
			f.Fatal(err)
		}
		if _, err := transport.DecodeEnvelope(gobFrame.Bytes()); err != nil {
			f.Fatalf("%T: gob frame does not decode: %v", env.Payload, err)
		}
		f.Add(gobFrame.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})       // empty gob stream
	f.Add([]byte{0x01})       // binary frame with no tag
	f.Add([]byte{0x01, 0xFF}) // unknown tag
	f.Add([]byte{0x42})       // unknown version

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := transport.DecodeEnvelope(data)
		if err != nil {
			return // malformed input rejected cleanly: the contract held
		}
		body, binary, err := transport.AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v (%+v)", err, env)
		}
		if !binary {
			// Gob-only payload (nothing registered): no binary round trip
			// to check.
			return
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
