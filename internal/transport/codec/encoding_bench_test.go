package codec_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"altrun/internal/checkpoint"
	"altrun/internal/consensus"
	"altrun/internal/ids"
	"altrun/internal/transport"
	"altrun/internal/transport/codec"
)

// Gob-vs-binary codec benchmarks for the two hot frame shapes: a
// batched ballot (group commit's control message) and a forwarded
// submit request (rfork's data message, a raw []byte). The gob path reproduces the per-frame
// encoding the transport used before the binary codec — a fresh
// gob.NewEncoder into a buffer — and the binary path is what
// encodeFrame does. Numbers live in EXPERIMENTS.md ("Wire codec").
//
// Gob is only a reference here: the transport no longer speaks it, so
// these tests register the payload types with gob themselves and decode
// gob frames with encoding/gob directly.

func init() {
	for _, env := range codec.SeedEnvelopes() {
		gob.Register(env.Payload)
	}
}

// benchBallotEnv is a 32-claim BallotReq, a realistic group-commit
// batch under load.
func benchBallotEnv() transport.Envelope {
	claims := make([]consensus.BallotClaim, 32)
	for i := range claims {
		claims[i] = consensus.BallotClaim{
			Key:      fmt.Sprintf("job/3/%d", 1000+i),
			Claimant: ids.PID(100 + i),
		}
	}
	return transport.Envelope{
		From: 3,
		To:   transport.Addr{Node: 1, Port: "consensus/vote"},
		Payload: consensus.BallotReq{
			Round:  42,
			Reply:  transport.Addr{Node: 3, Port: "consensus/vote/batch"},
			Claims: claims,
		},
	}
}

// benchRForkEnv is a forwarded sort request: the JSON body altserved
// sends to a peer's rfork port.
func benchRForkEnv() transport.Envelope {
	return transport.Envelope{
		From:    1,
		To:      transport.Addr{Node: 2, Port: checkpoint.RForkPort},
		Payload: []byte(`{"kind":"sort","deadline_ms":0,"input":[9,7,8,3,1],"trace_id":"n1-r77"}`),
	}
}

// gobFrameBody reproduces the retired per-frame encoding: version byte
// 0x00, then a fresh gob stream of the whole envelope.
func gobFrameBody(env transport.Envelope) []byte {
	var buf bytes.Buffer
	buf.WriteByte(0x00)
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// gobDecodeFrame is gobFrameBody's inverse, in encoding/gob alone.
func gobDecodeFrame(body []byte) (transport.Envelope, error) {
	var env transport.Envelope
	err := gob.NewDecoder(bytes.NewReader(body[1:])).Decode(&env)
	return env, err
}

func binaryFrameBody(b *testing.B, env transport.Envelope) []byte {
	body, binary, err := transport.AppendEnvelope(nil, env)
	if err != nil {
		b.Fatal(err)
	}
	if !binary {
		b.Fatalf("payload %T not on the binary path", env.Payload)
	}
	return body
}

func benchEncodeGob(b *testing.B, env transport.Envelope) {
	b.ReportAllocs()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		buf.WriteByte(0x00)
		if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func benchEncodeBinary(b *testing.B, env transport.Envelope) {
	b.ReportAllocs()
	var dst []byte
	for i := 0; i < b.N; i++ {
		var err error
		dst, _, err = transport.AppendEnvelope(dst[:0], env)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(dst)))
}

func benchDecode(b *testing.B, body []byte, decode func([]byte) (transport.Envelope, error)) {
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, err := decode(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeBallotGob(b *testing.B)    { benchEncodeGob(b, benchBallotEnv()) }
func BenchmarkEncodeBallotBinary(b *testing.B) { benchEncodeBinary(b, benchBallotEnv()) }
func BenchmarkDecodeBallotGob(b *testing.B) {
	benchDecode(b, gobFrameBody(benchBallotEnv()), gobDecodeFrame)
}
func BenchmarkDecodeBallotBinary(b *testing.B) {
	benchDecode(b, binaryFrameBody(b, benchBallotEnv()), transport.DecodeEnvelope)
}

func BenchmarkEncodeRForkGob(b *testing.B)    { benchEncodeGob(b, benchRForkEnv()) }
func BenchmarkEncodeRForkBinary(b *testing.B) { benchEncodeBinary(b, benchRForkEnv()) }
func BenchmarkDecodeRForkGob(b *testing.B) {
	benchDecode(b, gobFrameBody(benchRForkEnv()), gobDecodeFrame)
}
func BenchmarkDecodeRForkBinary(b *testing.B) {
	benchDecode(b, binaryFrameBody(b, benchRForkEnv()), transport.DecodeEnvelope)
}

// TestBinaryRoundTripMatchesGob pins the binary codec to gob as a
// reference: what the binary codec decodes must equal what gob decodes
// for the same envelope.
func TestBinaryRoundTripMatchesGob(t *testing.T) {
	for _, env := range []transport.Envelope{benchBallotEnv(), benchRForkEnv()} {
		gobEnv, err := gobDecodeFrame(gobFrameBody(env))
		if err != nil {
			t.Fatal(err)
		}
		body, binary, err := transport.AppendEnvelope(nil, env)
		if err != nil || !binary {
			t.Fatalf("binary encode: binary=%v err=%v", binary, err)
		}
		binEnv, err := transport.DecodeEnvelope(body)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", gobEnv) != fmt.Sprintf("%+v", binEnv) {
			t.Fatalf("paths disagree:\n gob: %+v\n bin: %+v", gobEnv, binEnv)
		}
	}
}
