package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"altrun/internal/checkpoint"
	"altrun/internal/ids"
	"altrun/internal/trace"
	"altrun/internal/transport"
)

// TestRForkShipsBodyPlusZeroPadding drives the JSON rfork sender path
// with a long, a short, a long and then an oversized request. The
// receiver must reconstruct each body followed by zeros to the image
// size (rforkSpaceSize, or the body's own size past it), with no tail
// of an earlier body left over; the second and third ships must be
// deltas against the first one's base, and the oversized one a legacy
// full image.
func TestRForkShipsBodyPlusZeroPadding(t *testing.T) {
	var tcps [2]*transport.TCP
	for i := range tcps {
		tcp, err := transport.NewTCP(transport.TCPOptions{Node: ids.NodeID(i + 1), Counters: &trace.NetCounters{}})
		if err != nil {
			t.Fatal(err)
		}
		defer tcp.Close()
		tcps[i] = tcp
	}
	tcps[0].AddPeer(tcps[1].ID(), tcps[1].Addr())
	tcps[1].AddPeer(tcps[0].ID(), tcps[0].Addr())
	inbox := tcps[1].Bind(checkpoint.RForkPort)
	nc := &trace.NetCounters{}
	sender := &clusterState{node: tcps[0].ID(), tcp: tcps[0], shipper: checkpoint.NewShipper(tcps[0], nc)}
	receiver := checkpoint.NewReceiver(tcps[1], nil, 0)

	sortOf := func(n int) submitRequest {
		req := submitRequest{Kind: "sort", TraceID: "rfork-wire", Input: make([]int, n)}
		for i := range req.Input {
			req.Input[i] = n - i
		}
		return req
	}
	for i, tc := range []struct {
		req   submitRequest
		delta bool
	}{
		{sortOf(600), false},
		{sortOf(20), true},
		{sortOf(900), true},
		{sortOf(5000), false},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		size := max(int64(len(body)), rforkSpaceSize)
		if oversized := len(body) > rforkSpaceSize; oversized != (i == 3) {
			t.Fatalf("ship %d: %d-byte body does not exercise the intended path", i, len(body))
		}
		deltasBefore := nc.DeltaShips.Load()
		if err := sender.rfork(tcps[1].ID(), uint64(i), tc.req); err != nil {
			t.Fatalf("ship %d: %v", i, err)
		}
		env, ok := inbox.RecvTimeout(transport.Background(), 10*time.Second)
		if !ok {
			t.Fatalf("ship %d never arrived", i)
		}
		img, ok := receiver.Handle(env)
		if !ok {
			t.Fatalf("ship %d: receiver could not reconstruct %T", i, env.Payload)
		}
		want := make([]byte, size)
		copy(want, body)
		if img.SpaceSize != size || img.PageSize != rforkPageSize || !bytes.Equal(img.Data, want) {
			t.Fatalf("ship %d: got a %d-byte image (space %d, pages %d), want the %d-byte body zero-padded to %d",
				i, len(img.Data), img.SpaceSize, img.PageSize, len(body), size)
		}
		if img.Control["len"] != int64(len(body)) || img.PID != ids.PID(i+1) {
			t.Fatalf("ship %d: control %v, PID %d", i, img.Control, img.PID)
		}
		if got := nc.DeltaShips.Load() > deltasBefore; got != tc.delta {
			t.Fatalf("ship %d: delta = %v, want %v", i, got, tc.delta)
		}
		req, err := requestFromImage(img)
		if err != nil || len(req.Input) != len(tc.req.Input) {
			t.Fatalf("ship %d: request read back with %d inputs (%v), want %d",
				i, len(req.Input), err, len(tc.req.Input))
		}
	}
}
