package checkpoint_test

import (
	"bytes"
	"testing"
	"time"

	"altrun/internal/checkpoint"
	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/page"
	"altrun/internal/trace"
	"altrun/internal/transport"
	"altrun/internal/transport/transporttest"
)

// Delta-shipping edge cases over both fabrics. The harness mirrors the
// altserved wiring: a receiver service on node 2 reconstructs each
// rfork-port envelope and echoes the image bytes back to the driver on
// a node-1 port (transport-native, so the same test runs on the
// cooperative simulator); a NAK service on node 1 answers cache misses.

const deltaEchoPort = "delta-test/echo"

// startDeltaPair spawns the receiver + NAK services and returns the
// shipper, receiver, counters, and a stop function the driver calls
// before finishing.
func startDeltaPair(f *transporttest.Fabric, capacity int) (*checkpoint.Shipper, *checkpoint.Receiver, *trace.NetCounters, func()) {
	nc := &trace.NetCounters{}
	eps := f.Eps()
	shipper := checkpoint.NewShipper(eps[0], nc)
	receiver := checkpoint.NewReceiver(eps[1], nc, capacity)

	rforkIn := eps[1].Bind(checkpoint.RForkPort)
	recvSvc := eps[1].Spawn("delta-recv", func(p transport.Proc) {
		for {
			env, ok := rforkIn.Recv(p)
			if !ok {
				return
			}
			if img, ok := receiver.Handle(env); ok {
				eps[1].Send(transport.Addr{Node: eps[0].ID(), Port: deltaEchoPort},
					append([]byte(nil), img.Data...))
			}
		}
	})
	ctlIn := eps[0].Bind(checkpoint.RForkCtlPort)
	nakSvc := eps[0].Spawn("delta-ctl", func(p transport.Proc) {
		checkpoint.ServeNaks(p, ctlIn, shipper)
	})
	return shipper, receiver, nc, func() {
		recvSvc.Kill()
		nakSvc.Kill()
	}
}

// awaitEcho blocks the driver until the receiver echoes a reconstructed
// image, returning its bytes.
func awaitEcho(t *testing.T, f *transporttest.Fabric, p transport.Proc, mb transport.Mailbox) []byte {
	t.Helper()
	env, ok := mb.RecvTimeout(p, 10*time.Second)
	if !ok {
		t.Error("no reconstructed image echoed within 10s")
		return nil
	}
	data, isBytes := env.Payload.([]byte)
	if !isBytes {
		t.Errorf("echo payload %T, want []byte", env.Payload)
		return nil
	}
	return data
}

// capture writes body into space (zeroing any longer previous tail) and
// captures an image.
func captureBody(t *testing.T, space *mem.AddressSpace, body []byte, prevLen int) *checkpoint.Image {
	t.Helper()
	if err := space.WriteAt(body, 0); err != nil {
		t.Fatal(err)
	}
	if len(body) < prevLen {
		if err := space.WriteAt(make([]byte, prevLen-len(body)), int64(len(body))); err != nil {
			t.Fatal(err)
		}
	}
	img, err := checkpoint.Capture(ids.PID(1), "delta-test", space, map[string]int64{"len": int64(len(body))})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestDeltaShipWarmPath: first ship is a full base, an identical image
// ships as an EMPTY delta, a one-page change ships as a one-page delta
// — and every reconstruction is byte-identical.
func TestDeltaShipWarmPath(t *testing.T) {
	transporttest.Each(t, 2, 5, func(t *testing.T, f *transporttest.Fabric) {
		shipper, _, nc, stop := startDeltaPair(f, 0)
		echo := f.Eps()[0].Bind(deltaEchoPort)
		f.Go("driver", func(p transport.Proc) {
			defer stop()
			space := mem.New(page.NewStore(256), 2048)
			imgA := captureBody(t, space, []byte("request body A"), 0)
			if _, delta, err := shipper.Ship(p, f.Eps()[1].ID(), "L", imgA); err != nil || delta {
				t.Errorf("first ship: delta=%v err=%v, want full", delta, err)
				return
			}
			if !bytes.Equal(awaitEcho(t, f, p, echo), imgA.Data) {
				t.Error("full-ship reconstruction differs")
				return
			}

			// Same bytes again: a delta with zero pages.
			imgA2 := captureBody(t, space, []byte("request body A"), len("request body A"))
			wire, delta, err := shipper.Ship(p, f.Eps()[1].ID(), "L", imgA2)
			if err != nil || !delta {
				t.Errorf("identical ship: delta=%v err=%v, want delta", delta, err)
				return
			}
			if wire >= len(imgA.Data) {
				t.Errorf("empty delta wire size %d not smaller than image %d", wire, len(imgA.Data))
			}
			if !bytes.Equal(awaitEcho(t, f, p, echo), imgA.Data) {
				t.Error("empty-delta reconstruction differs")
				return
			}

			// Change one page's worth of bytes: a one-page delta.
			body := []byte("request body B")
			imgB := captureBody(t, space, body, len("request body A"))
			wire, delta, err = shipper.Ship(p, f.Eps()[1].ID(), "L", imgB)
			if err != nil || !delta {
				t.Errorf("changed ship: delta=%v err=%v, want delta", delta, err)
				return
			}
			if wire >= len(imgB.Data) {
				t.Errorf("one-page delta wire size %d not smaller than image %d", wire, len(imgB.Data))
			}
			if !bytes.Equal(awaitEcho(t, f, p, echo), imgB.Data) {
				t.Error("one-page delta reconstruction differs")
				return
			}
		})
		f.Run(t)
		if full, deltas := nc.FullShips.Load(), nc.DeltaShips.Load(); full != 1 || deltas != 2 {
			t.Fatalf("ships full=%d delta=%d, want 1 full + 2 deltas", full, deltas)
		}
	})
}

// TestDeltaBaseCacheMissFallsBack: a delta against an evicted base is
// NAKed, and the sender recovers by re-shipping its retained latest
// image as a fresh full base — the job still arrives.
func TestDeltaBaseCacheMissFallsBack(t *testing.T) {
	transporttest.Each(t, 2, 5, func(t *testing.T, f *transporttest.Fabric) {
		// Capacity 1: establishing a second lineage evicts the first base.
		shipper, receiver, nc, stop := startDeltaPair(f, 1)
		echo := f.Eps()[0].Bind(deltaEchoPort)
		var want []byte
		f.Go("driver", func(p transport.Proc) {
			defer stop()
			to := f.Eps()[1].ID()
			spaceA := mem.New(page.NewStore(256), 2048)
			imgA := captureBody(t, spaceA, []byte("lineage A body 1"), 0)
			if _, _, err := shipper.Ship(p, to, "A", imgA); err != nil {
				t.Error(err)
				return
			}
			awaitEcho(t, f, p, echo)

			spaceB := mem.New(page.NewStore(256), 2048)
			imgB := captureBody(t, spaceB, []byte("lineage B body 1"), 0)
			if _, _, err := shipper.Ship(p, to, "B", imgB); err != nil {
				t.Error(err)
				return
			}
			awaitEcho(t, f, p, echo) // base A is now evicted

			// Delta on lineage A: receiver lacks the base, NAKs, sender
			// re-ships full; the echo we get is the NAK-recovery image.
			imgA2 := captureBody(t, spaceA, []byte("lineage A body 2"), len("lineage A body 1"))
			want = append([]byte(nil), imgA2.Data...)
			if _, delta, err := shipper.Ship(p, to, "A", imgA2); err != nil || !delta {
				t.Errorf("warm ship: delta=%v err=%v, want delta", delta, err)
				return
			}
			got := awaitEcho(t, f, p, echo)
			if !bytes.Equal(got, want) {
				t.Error("NAK-recovered reconstruction differs from shipped image")
			}
		})
		f.Run(t)
		if nc.ShipMisses.Load() != 1 {
			t.Fatalf("ship misses = %d, want 1", nc.ShipMisses.Load())
		}
		// Full ships: A base, B base, and the NAK recovery for A.
		if nc.FullShips.Load() != 3 {
			t.Fatalf("full ships = %d, want 3", nc.FullShips.Load())
		}
		if receiver.CachedBases() != 1 {
			t.Fatalf("cached bases = %d, want 1 (capacity)", receiver.CachedBases())
		}
	})
}

// TestInvalidateLineageAfterCompetingCommit: when the state a lineage's
// base was captured from is superseded (a competing commit), the sender
// invalidates; the peer drops its cached base and the next ship is a
// fresh full image, never a delta against stale state.
func TestInvalidateLineageAfterCompetingCommit(t *testing.T) {
	transporttest.Each(t, 2, 5, func(t *testing.T, f *transporttest.Fabric) {
		shipper, receiver, nc, stop := startDeltaPair(f, 0)
		echo := f.Eps()[0].Bind(deltaEchoPort)
		f.Go("driver", func(p transport.Proc) {
			defer stop()
			to := f.Eps()[1].ID()
			space := mem.New(page.NewStore(256), 2048)
			img := captureBody(t, space, []byte("pre-commit body"), 0)
			if _, _, err := shipper.Ship(p, to, "L", img); err != nil {
				t.Error(err)
				return
			}
			awaitEcho(t, f, p, echo)

			// The competing commit lands: everything captured under this
			// lineage is stale.
			shipper.InvalidateLineage("L")
			for i := 0; i < 100 && receiver.CachedBases() > 0; i++ {
				p.Sleep(10 * time.Millisecond)
			}
			if receiver.CachedBases() != 0 {
				t.Error("peer kept its base after invalidation")
				return
			}

			img2 := captureBody(t, space, []byte("post-commit body"), len("pre-commit body"))
			if _, delta, err := shipper.Ship(p, to, "L", img2); err != nil || delta {
				t.Errorf("post-invalidate ship: delta=%v err=%v, want full", delta, err)
				return
			}
			if !bytes.Equal(awaitEcho(t, f, p, echo), img2.Data) {
				t.Error("post-invalidate reconstruction differs")
			}
		})
		f.Run(t)
		if nc.FullShips.Load() != 2 || nc.DeltaShips.Load() != 0 {
			t.Fatalf("ships full=%d delta=%d, want 2 full + 0 deltas", nc.FullShips.Load(), nc.DeltaShips.Load())
		}
	})
}

// TestDropPeerResetsStreams: when the membership view declares a peer
// dead, the shipper forgets every session toward it (DropPeer) and the
// receiver purges that peer's cached bases (InvalidateNode), so a
// rejoin restarts each lineage with a fresh full base instead of a
// delta against state the other side no longer holds.
func TestDropPeerResetsStreams(t *testing.T) {
	transporttest.Each(t, 2, 5, func(t *testing.T, f *transporttest.Fabric) {
		shipper, receiver, nc, stop := startDeltaPair(f, 0)
		echo := f.Eps()[0].Bind(deltaEchoPort)
		to := f.Eps()[1].ID()
		from := f.Eps()[0].ID()
		f.Go("driver", func(p transport.Proc) {
			defer stop()
			space := mem.New(page.NewStore(256), 2048)
			ship := func(lineage string, body []byte, prev int, wantDelta bool) {
				t.Helper()
				img := captureBody(t, space, body, prev)
				_, delta, err := shipper.Ship(p, to, lineage, img)
				if err != nil || delta != wantDelta {
					t.Errorf("ship %s: delta=%v err=%v, want delta=%v", lineage, delta, err, wantDelta)
					return
				}
				if !bytes.Equal(awaitEcho(t, f, p, echo), img.Data) {
					t.Errorf("ship %s: reconstruction differs", lineage)
				}
			}
			// Warm two lineages, prove L1's stream went incremental.
			ship("L1", []byte("lineage one body"), 0, false)
			ship("L2", []byte("lineage two body"), 16, false)
			ship("L1", []byte("lineage one BODY"), 16, true)

			// The view drops the peer: both sender sessions must go.
			if n := shipper.DropPeer(to); n != 2 {
				t.Errorf("DropPeer dropped %d sessions, want 2", n)
			}
			if n := shipper.DropPeer(to); n != 0 {
				t.Errorf("second DropPeer dropped %d sessions, want 0", n)
			}
			// Rejoin: the first ship per lineage is a full base again.
			ship("L1", []byte("lineage one body"), 16, false)

			// Receiver side of a departed sender: purge its bases.
			if got := receiver.CachedBases(); got != 2 {
				t.Errorf("receiver caches %d bases, want 2", got)
			}
			if n := receiver.InvalidateNode(from); n != 2 {
				t.Errorf("InvalidateNode evicted %d bases, want 2", n)
			}
			if got := receiver.CachedBases(); got != 0 {
				t.Errorf("receiver caches %d bases after purge, want 0", got)
			}
		})
		f.Run(t)
		if full := nc.FullShips.Load(); full != 3 {
			t.Fatalf("full ships = %d, want 3 (two warmups + one post-drop restart)", full)
		}
	})
}
