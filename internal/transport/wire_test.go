package transport

import (
	"strings"
	"testing"
	"time"
)

// unregistered is a payload type no wire codec knows.
type unregistered struct{ N int }

// TestUnregisteredPayloadNotSent: the binary codec is the only wire
// encoding, so a payload type without a codec is an encode error that
// names the type, and a TCP send of it reports failure and counts a
// drop instead of putting a frame on the wire.
func TestUnregisteredPayloadNotSent(t *testing.T) {
	_, _, err := AppendEnvelope(nil, Envelope{From: 1, To: Addr{Node: 2, Port: "inbox"}, Payload: unregistered{N: 7}})
	if err == nil || !strings.Contains(err.Error(), "no wire codec registered for transport.unregistered") {
		t.Fatalf("AppendEnvelope(unregistered) err = %v, want one naming transport.unregistered", err)
	}

	a, b := newPair(t)
	mb := b.Bind("inbox")
	before := a.Counters().Snapshot().Dropped
	if a.Send(Addr{Node: 2, Port: "inbox"}, unregistered{N: 7}) {
		t.Fatal("send of an unregistered payload type reported success")
	}
	if got := a.Counters().Snapshot().Dropped - before; got != 1 {
		t.Fatalf("dropped = %d after the refused send, want 1", got)
	}
	if env, ok := mb.RecvTimeout(Background(), 100*time.Millisecond); ok {
		t.Fatalf("peer received %+v", env)
	}
}

// TestGobFrameRejected: version 0x00 (the retired gob framing) is not a
// frame version any more, whatever follows it.
func TestGobFrameRejected(t *testing.T) {
	for _, body := range [][]byte{{0x00}, {0x00, 0x0f, 0xff, 0x81, 0x02}} {
		_, err := DecodeEnvelope(body)
		if err == nil || !strings.Contains(err.Error(), "unknown frame version 0") {
			t.Fatalf("DecodeEnvelope(% x) err = %v, want unknown frame version 0", body, err)
		}
	}
}
