package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"altrun/internal/ids"
	"altrun/internal/msg"
	"altrun/internal/page"
	"altrun/internal/predicate"
	"altrun/internal/proc"
)

// Activation: an alternative's world builds its predicate set,
// subscriptions and inbox on first use — a send, a receive, a delivery,
// console access. The tests below fail if activation skips its catch-up
// on what resolved before, or its subscriptions.

// waitStatus polls until pid reaches st; alternatives' bodies call it.
func waitStatus(rt *Runtime, pid ids.PID, st proc.Status) error {
	deadline := time.Now().Add(10 * time.Second)
	for rt.procs.Status(pid) != st {
		if time.Now().After(deadline) {
			return fmt.Errorf("%v is %v, want %v", pid, rt.procs.Status(pid), st)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// recordingServer returns a server whose copies put the predicate set
// of every message they handle on the returned channel.
func recordingServer(rt *Runtime) (*World, chan *predicate.Set) {
	got := make(chan *predicate.Set, 16) // more than any test sends; extra sets are dropped
	srv := rt.SpawnServer("recorder", 1024, func(_ *World, m msg.Message) {
		select {
		case got <- m.SenderPredicates:
		default:
		}
	})
	return srv, got
}

// settle waits for the split copies of srv to collapse to one and shuts
// everything down.
func settle(t *testing.T, rt *Runtime, srv *World, roots ...*World) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(rt.Copies(srv.PID())) > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("server copies never settled: %d live", len(rt.Copies(srv.PID())))
		}
		time.Sleep(100 * time.Microsecond)
	}
	for _, cw := range rt.Copies(srv.PID()) {
		rt.Shutdown(cw)
	}
	for _, r := range roots {
		rt.Shutdown(r)
	}
	rt.Wait()
}

// subscribedPIDs lists the PIDs that have a subscription bucket.
func subscribedPIDs(r *registry) []ids.PID {
	var out []ids.PID
	for i := range r.shards {
		r.shards[i].subs.Range(func(p ids.PID, _ *subBucket) bool {
			out = append(out, p)
			return true
		})
	}
	return out
}

// TestActivationSendAfterSiblingFailed: a child that first sends after
// its sibling failed stamps the message with a set that no longer
// assumes anything about that sibling.
func TestActivationSendAfterSiblingFailed(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	srv, got := recordingServer(rt)
	failed := make(chan ids.PID, 1)
	var sender, sibling ids.PID
	res, err := root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "fails", Body: func(w *World) error {
			failed <- w.PID()
			return errors.New("closed")
		}},
		Alt{Name: "sends", Body: func(w *World) error {
			sender, sibling = w.PID(), <-failed
			if err := waitStatus(rt, sibling, proc.Failed); err != nil {
				return err
			}
			return w.Send(srv.PID(), "hello")
		}},
	)
	if err != nil || res.Name != "sends" {
		t.Fatalf("block = %+v, %v; want sends to win", res, err)
	}
	select {
	case preds := <-got:
		if preds.CantComplete(sibling) {
			t.Fatalf("message carries %v: the failed sibling %v was not caught up", preds, sibling)
		}
		if !preds.MustComplete(sender) {
			t.Fatalf("message carries %v, want it to assume its sender %v completes", preds, sender)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the server never handled the message")
	}
	settle(t, rt, srv, root)
}

// TestActivationSubscribesToLaterResolutions: once a child has
// activated, a sibling's failure reaches it through its subscription.
func TestActivationSubscribesToLaterResolutions(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	fail, sib := make(chan struct{}), make(chan ids.PID, 1)
	res, err := root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "waits", Body: func(w *World) error {
			sibling := <-sib
			w.Recv(0) // activates
			if !w.Predicates().CantComplete(sibling) {
				return fmt.Errorf("%v forgot its live sibling %v", w.Predicates(), sibling)
			}
			close(fail)
			deadline := time.Now().Add(10 * time.Second)
			for w.Predicates().CantComplete(sibling) {
				if time.Now().After(deadline) {
					return fmt.Errorf("sibling %v failed, but %v still assumes it", sibling, w.Predicates())
				}
				time.Sleep(50 * time.Microsecond)
			}
			return nil
		}},
		Alt{Name: "fails", Body: func(w *World) error {
			sib <- w.PID()
			<-fail
			return errors.New("closed")
		}},
	)
	if err != nil || res.Name != "waits" {
		t.Fatalf("block = %+v, %v; want waits to win", res, err)
	}
	rt.Wait()
	rt.Shutdown(root)
}

// commitHookProbe runs onCommit when the parent has adopted the winner
// and before it eliminates the losers.
type commitHookProbe struct {
	*testProbe
	onCommit func()
}

func (p commitHookProbe) Committed(winner ids.PID, now time.Time) {
	p.testProbe.Committed(winner, now)
	p.onCommit()
}

// TestActivationAfterSiblingWonIsEliminated: a child whose sibling has
// already won, but which its block has not eliminated yet, activates on
// its first Send, finds the winner's completion in its catch-up and is
// eliminated. The Send fails and nothing reaches the receiver.
func TestActivationAfterSiblingWonIsEliminated(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := recordingServer(rt)
	start, result := make(chan struct{}, 1), make(chan error, 1)
	probe := commitHookProbe{newTestProbe(), func() {
		start <- struct{}{}
		<-result
	}}
	var loser *World
	res, err := root.RunAlt(Options{SyncElimination: true, Probe: probe},
		Alt{Name: "wins", Body: func(w *World) error { return nil }},
		Alt{Name: "late", Body: func(w *World) error {
			loser = w
			<-start
			err := w.Send(srv.PID(), "late")
			result <- err
			return err
		}},
	)
	if err != nil || res.Name != "wins" {
		t.Fatalf("block = %+v, %v; want wins to win", res, err)
	}
	if loser == nil {
		t.Fatal("the loser never ran")
	}
	if !loser.eliminated.Load() {
		t.Fatal("the loser's catch-up did not eliminate it")
	}
	if n := rt.MsgStats().Sent; n != 0 {
		t.Fatalf("%d messages sent by a world whose sibling had won", n)
	}
	settle(t, rt, srv, root) // waits for the loser to exit
	probe.mu.Lock()
	got := probe.exits[loser.pid]
	probe.mu.Unlock()
	if got != OutcomeCancelled {
		t.Fatalf("loser outcome %q, want %q (its Send returned ErrEliminated)", got, OutcomeCancelled)
	}
}

// TestActivationRacingEliminationLeavesNoBuckets runs many blocks whose
// alternatives activate — by sending, by receiving, by a delivery from
// another root — while their siblings commit and eliminate them. Once
// everything has ended, no subscription bucket may be left for any
// resolved PID. Run under -race.
func TestActivationRacingEliminationLeavesNoBuckets(t *testing.T) {
	rt := New(Config{PageSize: 64})
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	poker, err := rt.NewRootWorld("poker", 64)
	if err != nil {
		t.Fatal(err)
	}
	const blocks, width = 200, 4
	spawned := make(chan ids.PID, blocks*width) // one per child: the probe never blocks a parent
	probe := spawnHookProbe{newTestProbe(), func(pid ids.PID) { spawned <- pid }}
	var pokes sync.WaitGroup
	pokes.Add(1)
	go func() {
		defer pokes.Done()
		for pid := range spawned {
			_ = poker.Send(pid, "poke") // accepted, or the child is gone
		}
	}()
	unknown := ids.PID(1 << 40)
	for i := 0; i < blocks; i++ {
		_, err := root.RunAlt(Options{SyncElimination: i%2 == 0, Probe: probe},
			Alt{Name: "wins", Body: func(w *World) error { return nil }},
			Alt{Name: "sends", Body: func(w *World) error {
				runtime.Gosched()
				_ = w.Send(unknown, "x")
				return nil
			}},
			Alt{Name: "receives", Body: func(w *World) error {
				w.Recv(0)
				return nil
			}},
			Alt{Name: "late", Body: func(w *World) error {
				time.Sleep(20 * time.Microsecond)
				_ = w.Send(unknown, "x")
				return errors.New("late")
			}},
		)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	close(spawned)
	pokes.Wait()
	rt.Wait()
	for _, p := range subscribedPIDs(rt.reg) {
		if rt.procs.Status(p).Terminal() {
			t.Errorf("a subscription bucket outlived the resolution of %v", p)
		}
	}
	rt.Shutdown(root)
	rt.Shutdown(poker)
	if n := rt.LiveWorlds(); n != 0 {
		t.Fatalf("LiveWorlds = %d, want 0", n)
	}
}

// spawnHookProbe runs onSpawn for every child the block builds.
type spawnHookProbe struct {
	*testProbe
	onSpawn func(pid ids.PID)
}

func (p spawnHookProbe) ChildSpawned(pid ids.PID, name string, now time.Time) {
	p.testProbe.ChildSpawned(pid, name, now)
	p.onSpawn(pid)
}

// TestActivationDeliveryDecidedAgainstDerivedSet: the first delivery to
// a child that has not yet communicated activates it and is decided
// against the set the child would have derived itself, caught up: a
// sibling's message is ignored (the two assume each other fails), a
// root's is accepted, and the set no longer mentions a sibling that
// failed before the delivery.
func TestActivationDeliveryDecidedAgainstDerivedSet(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	other, err := rt.NewRootWorld("other", 64)
	if err != nil {
		t.Fatal(err)
	}
	var (
		listener, failed = make(chan *World, 1), make(chan ids.PID, 1)
		release, send    = make(chan struct{}), make(chan ids.PID, 1)
		sent             = make(chan error, 1)
		received         = make(chan any, 1)
	)
	type outcome struct {
		res Result
		err error
	}
	block := make(chan outcome, 1)
	go func() {
		res, err := root.RunAlt(Options{SyncElimination: true},
			Alt{Name: "listens", Body: func(w *World) error {
				listener <- w
				<-release
				m, ok := w.Recv(10 * time.Second)
				if !ok {
					return errors.New("nothing received")
				}
				received <- m.Data
				return nil
			}},
			Alt{Name: "fails", Body: func(w *World) error {
				failed <- w.PID()
				return errors.New("closed")
			}},
			Alt{Name: "sibling", Body: func(w *World) error {
				sent <- w.Send(<-send, "from a sibling")
				return errors.New("sent")
			}},
		)
		block <- outcome{res, err}
	}()
	lw, sib := <-listener, <-failed
	if err := waitStatus(rt, sib, proc.Failed); err != nil {
		t.Fatal(err)
	}
	if lw.activated.Load() {
		t.Fatal("the listener activated before anything was delivered to it")
	}
	send <- lw.pid
	if err := <-sent; err != nil {
		t.Fatalf("sibling's send: %v", err)
	}
	if st := rt.MsgStats(); st.Ignored != 1 || st.Accepted != 0 || st.Splits != 0 {
		t.Fatalf("sibling's message: %+v, want it ignored", st)
	}
	if !lw.activated.Load() {
		t.Fatal("a delivery did not activate the listener")
	}
	if preds := lw.Predicates(); preds.CantComplete(sib) || !preds.MustComplete(lw.pid) {
		t.Fatalf("listener holds %v after a delivery: want its own completion assumed and failed %v caught up", preds, sib)
	}
	if err := other.Send(lw.pid, "from a root"); err != nil {
		t.Fatalf("root's send: %v", err)
	}
	if st := rt.MsgStats(); st.Accepted != 1 {
		t.Fatalf("root's message: %+v, want it accepted", st)
	}
	close(release)
	out := <-block
	if out.err != nil || out.res.Name != "listens" {
		t.Fatalf("block = %+v, %v; want listens to win", out.res, out.err)
	}
	if got := <-received; got != "from a root" {
		t.Fatalf("listener received %v", got)
	}
	rt.Wait()
	rt.Shutdown(root)
	rt.Shutdown(other)
}

// TestActivationNestedGrandchildCaughtUp: a nested block derives its
// children's sets from its parent's, which never activated and so
// still assumes a sibling that has since failed. The grandchild's
// activation catches up on it.
func TestActivationNestedGrandchildCaughtUp(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	failed := make(chan ids.PID, 1)
	seen := make(chan *predicate.Set, 1)
	var parent, grandchild, cousin, sibling ids.PID
	res, err := root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "nests", Body: func(w *World) error {
			parent, sibling = w.PID(), <-failed
			if err := waitStatus(rt, sibling, proc.Failed); err != nil {
				return err
			}
			probe := newTestProbe()
			_, err := w.RunAlt(Options{SyncElimination: true, Probe: probe},
				Alt{Name: "inner", Body: func(g *World) error {
					grandchild = g.PID()
					g.Recv(0)
					seen <- g.Predicates()
					return nil
				}},
				Alt{Name: "inner-slow", Body: func(g *World) error {
					g.Sleep(10 * time.Second) // cancel-aware
					return nil
				}},
			)
			if err == nil && len(probe.spawned) == 2 {
				cousin = probe.spawned[1]
			}
			return err
		}},
		Alt{Name: "fails", Body: func(w *World) error {
			failed <- w.PID()
			return errors.New("closed")
		}},
	)
	if err != nil || res.Name != "nests" {
		t.Fatalf("block = %+v, %v; want nests to win", res, err)
	}
	preds := <-seen
	if preds.CantComplete(sibling) {
		t.Fatalf("grandchild holds %v: its parent's failed sibling %v was not caught up", preds, sibling)
	}
	if !preds.MustComplete(parent) || !preds.MustComplete(grandchild) || !preds.CantComplete(cousin) {
		t.Fatalf("grandchild holds %v, want must %v,%v and cant %v", preds, parent, grandchild, cousin)
	}
	rt.Wait()
	rt.Shutdown(root)
}

// messageFreeBlock runs one two-alternative block that never
// communicates: the first alternative writes and wins, the second
// sleeps until it is eliminated.
func messageFreeBlock(t testing.TB, root *World) {
	_, err := root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "write", Body: func(w *World) error { return w.WriteUint64(0, 7) }},
		Alt{Name: "sleep", Body: func(w *World) error {
			w.Sleep(time.Second)
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
}

// messageFreeBlockAllocs bounds the allocations of messageFreeBlock. A
// block measured 47 allocations on go1.24 (78 with every child's set
// derived, subscribed to its siblings and given an inbox at spawn).
const messageFreeBlockAllocs = 60

// TestMessageFreeBlockPaysNoSubscriptions: a block whose alternatives
// never communicate subscribes no world to anything, so its commit
// visits no subscriber, and it allocates no more than its own setup
// and selection need.
func TestMessageFreeBlockPaysNoSubscriptions(t *testing.T) {
	rt := New(Config{})
	root, err := rt.NewRootWorld("main", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.WriteUint64(0, 1); err != nil {
		t.Fatal(err)
	}
	messageFreeBlock(t, root) // warm the pools
	before := rt.SelStats().SubscribersVisited
	for i := 0; i < 50; i++ {
		messageFreeBlock(t, root)
	}
	if d := rt.SelStats().SubscribersVisited - before; d != 0 {
		t.Fatalf("50 message-free blocks visited %d subscribers, want 0", d)
	}
	if !raceEnabled { // the race detector allocates on its own account
		if n := testing.AllocsPerRun(200, func() { messageFreeBlock(t, root) }); n > messageFreeBlockAllocs {
			t.Fatalf("a message-free block allocates %.0f objects, want <= %d", n, messageFreeBlockAllocs)
		}
	}
	rt.Wait()
	rt.Shutdown(root)
}

// TestSpawnErrorReleasesBlock: when building a block's children fails
// part way — here the parent is shut down after its first child is
// built, so forking the second fails — RunAlt returns the error and
// leaves nothing behind: the built child is eliminated and its pages
// released, the unbuilt one is resolved as failed, and neither stays
// Running in the parent's child index.
func TestSpawnErrorReleasesBlock(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.WriteUint64(0, 1); err != nil {
		t.Fatal(err)
	}
	var built *World
	probe := spawnHookProbe{newTestProbe(), func(pid ids.PID) {
		built = rt.worldByPID(pid)
		rt.Shutdown(root)
	}}
	_, err = root.RunAlt(Options{Probe: probe},
		Alt{Name: "first", Body: func(w *World) error { return nil }},
		Alt{Name: "second", Body: func(w *World) error { return nil }},
	)
	if !errors.Is(err, page.ErrReleased) {
		t.Fatalf("RunAlt = %v, want the fork's %v", err, page.ErrReleased)
	}
	if built == nil {
		t.Fatal("the first child was never built")
	}
	if n := rt.LiveWorlds(); n != 0 {
		t.Fatalf("LiveWorlds = %d, want 0", n)
	}
	if _, err := built.Snapshot(); !errors.Is(err, page.ErrReleased) {
		t.Fatalf("the built child's pages were not released: %v", err)
	}
	if kids := rt.procs.AppendChildren(nil, root.pid); len(kids) != 0 {
		t.Fatalf("the root still indexes children %v", kids)
	}
	// Nothing else registers processes here, so the block's two PIDs
	// are consecutive.
	if st := rt.procs.Status(built.pid); st != proc.Eliminated {
		t.Errorf("the built child is %v, want %v", st, proc.Eliminated)
	}
	if st := rt.procs.Status(built.pid + 1); st != proc.Failed {
		t.Errorf("the unbuilt child is %v, want %v", st, proc.Failed)
	}
	rt.Wait()
}
