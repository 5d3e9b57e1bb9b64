package checkpoint

import (
	"fmt"
	"time"

	"altrun/internal/ids"
	"altrun/internal/transport"
)

// Remote fork shipping (§4.4): "the major cost was creating a
// checkpoint of the process in its entirety" — once captured, the
// image is just bytes, and moving it is a transport concern. Ship and
// Receive are the two halves of the rfork pipeline between checkpoint
// Capture and Restore; E3 and E5 measure them on the simulated cluster.

// RForkPort is the well-known port rfork receivers bind. altserved
// binds it too, for the submit requests it forwards before they run.
const RForkPort = "rfork"

// Ship encodes img and sends it to the rfork port on node `to`,
// charging the sender the serialization cost (per-byte transfer cost;
// the link itself adds its latency). It returns the wire size.
func Ship(p transport.Proc, ep transport.Endpoint, to ids.NodeID, img *Image) (int, error) {
	wire, err := img.Encode()
	if err != nil {
		return 0, err
	}
	p.Sleep(ep.TransferCost(len(wire)) - ep.TransferCost(0))
	ep.Send(transport.Addr{Node: to, Port: RForkPort}, wire)
	return len(wire), nil
}

// Receive waits for one shipped image on mbox (a mailbox bound to
// RForkPort) and decodes it. The caller restores it — Restore cost is
// the receiver's to charge.
func Receive(p transport.Proc, mbox transport.Mailbox, timeout time.Duration) (*Image, error) {
	env, ok := mbox.RecvTimeout(p, timeout)
	if !ok {
		return nil, fmt.Errorf("checkpoint: rfork image never arrived")
	}
	wire, isBytes := env.Payload.([]byte)
	if !isBytes {
		return nil, fmt.Errorf("checkpoint: bad rfork payload %T", env.Payload)
	}
	return Decode(wire)
}
