// Package transporttest runs protocol tests over both transport
// fabrics: the deterministic simulated cluster and a real TCP loopback
// fleet. A test written once against transport.Endpoint is exercised
// on each via Each, which is how the consensus suite proves the
// protocols are fabric-independent.
package transporttest

import (
	"sync"
	"testing"
	"time"

	"altrun/internal/cluster"
	"altrun/internal/sim"
	"altrun/internal/transport"

	// Every protocol suite run through Each crosses the TCP fabric's
	// framing; the central registration point supplies the codecs.
	_ "altrun/internal/transport/codec"
)

// Fabric is one transport under test plus the harness needed to drive
// blocking protocol code on it: the simulator needs driver procs
// spawned on the engine and an explicit Run; TCP needs goroutines and
// a WaitGroup.
type Fabric struct {
	// Name labels the subtest: "sim" or "tcp".
	Name string
	// T is the fabric (endpoints + fault injection).
	T transport.Transport

	eng     *sim.Engine
	cl      *cluster.Cluster
	fleet   *transport.TCPFleet
	wg      sync.WaitGroup
	killers []transport.Handle
}

// Sim reports whether this fabric is the simulator — tests gate
// virtual-time assertions (exact latencies, deterministic drop counts)
// on it.
func (f *Fabric) Sim() bool { return f.eng != nil }

// Engine returns the sim engine (nil on TCP).
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Eps returns the fabric's endpoints in node order.
func (f *Fabric) Eps() []transport.Endpoint { return f.T.Endpoints() }

// Go starts a driver process running fn: a simulated proc on the
// engine, a goroutine on TCP. Drivers must return for Run to finish.
func (f *Fabric) Go(name string, fn func(p transport.Proc)) {
	if f.Sim() {
		f.eng.Spawn(name, func(p *sim.Proc) { fn(p) })
		return
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		fn(transport.Background())
	}()
}

// Run executes the drivers to completion: the simulator runs the event
// loop (all service procs must be shut down by then, as usual); TCP
// waits for the driver goroutines with a 30s guard.
func (f *Fabric) Run(t testing.TB) {
	t.Helper()
	if f.Sim() {
		if err := f.eng.Run(); err != nil {
			t.Fatalf("sim run: %v", err)
		}
		return
	}
	donec := make(chan struct{})
	go func() { f.wg.Wait(); close(donec) }()
	select {
	case <-donec:
	case <-time.After(30 * time.Second):
		t.Fatal("tcp fabric: drivers did not finish within 30s")
	}
}

// Each runs fn as a subtest on a sim fabric and a TCP loopback fabric,
// both with n nodes. seed drives each fabric's drop injection.
func Each(t *testing.T, n int, seed int64, fn func(t *testing.T, f *Fabric)) {
	t.Helper()
	t.Run("sim", func(t *testing.T) {
		e := sim.New(0)
		c := cluster.New(e, seed)
		profile := sim.ProfileHP9000()
		for i := 0; i < n; i++ {
			c.AddNode(profile)
		}
		fn(t, &Fabric{Name: "sim", T: c, eng: e, cl: c})
	})
	t.Run("tcp", func(t *testing.T) {
		fleet, err := transport.NewTCPFleet(n, seed)
		if err != nil {
			t.Fatalf("tcp fleet: %v", err)
		}
		defer fleet.Close()
		fn(t, &Fabric{Name: "tcp", T: fleet, fleet: fleet})
	})
}
