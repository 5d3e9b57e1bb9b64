package codec_test

import (
	"testing"

	"altrun/internal/transport"
	"altrun/internal/transport/codec"
)

// TestRetiredTagsStayReserved: tags 2..5 belonged to the retired
// per-claim consensus messages. Nothing may register them again, so an
// old peer's frame is refused rather than decoded as some other type.
func TestRetiredTagsStayReserved(t *testing.T) {
	env := codec.SeedEnvelopes()[1] // a BallotReq
	body, binary, err := transport.AppendEnvelope(nil, env)
	if err != nil || !binary {
		t.Fatalf("seed frame: binary=%v err=%v", binary, err)
	}
	for tag := byte(2); tag <= 5; tag++ {
		frame := append([]byte(nil), body...)
		frame[1] = tag
		if got, err := transport.DecodeEnvelope(frame); err == nil {
			t.Errorf("tag %d decoded as %T, want unknown-tag error", tag, got.Payload)
		}
	}
}
