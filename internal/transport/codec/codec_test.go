package codec_test

import (
	"fmt"
	"testing"

	"altrun/internal/membership"
	"altrun/internal/transport"
	"altrun/internal/transport/codec"
)

// TestRetiredTagsStayReserved: tags 2..5 belonged to the retired
// per-claim consensus messages, 12..15 to the retired delta checkpoint
// shipping, 16..17 to the retired network paged-file device, 200/201 to
// altserved's retired load queries and 202/203 to its retired typed
// rfork specs. Nothing may register them again, so an old peer's frame
// is refused rather than decoded as some other type.
func TestRetiredTagsStayReserved(t *testing.T) {
	env := codec.SeedEnvelopes()[1] // a BallotReq
	body, binary, err := transport.AppendEnvelope(nil, env)
	if err != nil || !binary {
		t.Fatalf("seed frame: binary=%v err=%v", binary, err)
	}
	for _, tag := range []byte{2, 3, 4, 5, 12, 13, 14, 15, 16, 17, 200, 201, 202, 203} {
		frame := append([]byte(nil), body...)
		frame[1] = tag
		if got, err := transport.DecodeEnvelope(frame); err == nil {
			t.Errorf("tag %d decoded as %T, want unknown-tag error", tag, got.Payload)
		}
	}
}

// TestMembershipStatusRoundTrips: an update's status is written and read
// as the same uvarint, so every value of the byte-sized Status survives
// a round trip — including those from 128 up, whose uvarint takes two
// bytes.
func TestMembershipStatusRoundTrips(t *testing.T) {
	for _, st := range []membership.Status{membership.StatusAlive, 127, 128, 174, 255} {
		env := transport.Envelope{From: 5, To: transport.Addr{Node: 1, Port: membership.Port}, Payload: membership.Gossip{
			Updates: []membership.Update{{Node: 5, Addr: "127.0.0.1:7105", Status: st, Seq: 3, Load: -1}},
		}}
		body, _, err := transport.AppendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := transport.DecodeEnvelope(body)
		if err != nil {
			t.Fatalf("status %d: %v", st, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", env) {
			t.Fatalf("status %d: round trip drift:\n was %+v\n now %+v", st, env, got)
		}
	}
}
