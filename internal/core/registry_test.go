package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"altrun/internal/ids"
	"altrun/internal/msg"
	"altrun/internal/proc"
)

// Unit tests for the world registry — the world map and the
// predicate-subscription index — and for split-receiver alias
// resolution over it.

// eachRegistry runs fn on a fresh registry as a subtest named
// "lockfree", which keeps the tests' names stable.
func eachRegistry(t *testing.T, fn func(t *testing.T, mk func() *registry)) {
	t.Helper()
	t.Run("lockfree", func(t *testing.T) { fn(t, newRegistry) })
}

// join publishes w and subscribes it to w.subPIDs, as registration
// followed by activation does; leave undoes both.
func join(r *registry, w *World) {
	r.addWorld(w)
	r.subscribe(w, w.subPIDs)
}

func leave(r *registry, w *World) {
	r.removeWorld(w)
	r.unsubscribe(w, w.subPIDs)
}

func pidsOf(ws []*World) []ids.PID {
	out := make([]ids.PID, len(ws))
	for i, w := range ws {
		out[i] = w.pid
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRegistryAddRemoveWorld(t *testing.T) {
	eachRegistry(t, func(t *testing.T, mk func() *registry) {
		r := mk()
		// Spread worlds across every shard (PIDs 1..64 cover all 16
		// stripes four times over).
		var ws []*World
		for pid := ids.PID(1); pid <= 64; pid++ {
			w := &World{pid: pid}
			ws = append(ws, w)
			r.addWorld(w)
		}
		for _, w := range ws {
			if got := r.world(w.pid); got != w {
				t.Fatalf("world(%v) = %p, want %p", w.pid, got, w)
			}
		}
		if got := len(r.snapshotWorlds()); got != 64 {
			t.Fatalf("snapshot has %d worlds, want 64", got)
		}
		for _, w := range ws[:32] {
			r.removeWorld(w)
		}
		for _, w := range ws[:32] {
			if r.world(w.pid) != nil {
				t.Fatalf("world(%v) still present after remove", w.pid)
			}
		}
		if got := len(r.snapshotWorlds()); got != 32 {
			t.Fatalf("snapshot has %d worlds after removal, want 32", got)
		}
	})
}

func TestRegistrySubscriptionIndex(t *testing.T) {
	eachRegistry(t, func(t *testing.T, mk func() *registry) {
		r := mk()
		subject := ids.PID(100)
		other := ids.PID(101)
		a := &World{pid: 1, subPIDs: []ids.PID{subject}}
		b := &World{pid: 2, subPIDs: []ids.PID{subject, other}}
		c := &World{pid: 3, subPIDs: []ids.PID{other}}
		for _, w := range []*World{a, b, c} {
			join(r, w)
		}

		got := pidsOf(r.appendSubscribers(nil, subject))
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("subscribers(%v) = %v, want [1 2]", subject, got)
		}
		// A world subscribed to several PIDs appears in each bucket.
		got = pidsOf(r.appendSubscribers(nil, other))
		if len(got) != 2 || got[0] != 2 || got[1] != 3 {
			t.Fatalf("subscribers(%v) = %v, want [2 3]", other, got)
		}
		// appendSubscribers appends; it must not clobber what's in buf.
		buf := []*World{c}
		buf = r.appendSubscribers(buf, subject)
		if len(buf) != 3 || buf[0] != c {
			t.Fatalf("appendSubscribers clobbered the buffer prefix: %v", pidsOf(buf))
		}

		// Removing a world removes it from every bucket it was in.
		leave(r, b)
		got = pidsOf(r.appendSubscribers(nil, subject))
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("subscribers(%v) after remove = %v, want [1]", subject, got)
		}

		// dropBucket forgets the subject entirely; removing a world
		// whose bucket is gone must be silent.
		r.dropBucket(subject)
		if got := r.appendSubscribers(nil, subject); len(got) != 0 {
			t.Fatalf("subscribers(%v) after drop = %v, want empty", subject, got)
		}
		leave(r, a) // a was subscribed to the dropped bucket
		if r.world(a.pid) != nil {
			t.Fatal("removeWorld failed after dropBucket")
		}
	})
}

// eachRuntime runs fn on a whole runtime, as a subtest named like
// eachRegistry's: alias resolution spans the process table and the
// world registry, so it is tested where it lives.
func eachRuntime(t *testing.T, fn func(t *testing.T, rt *Runtime)) {
	t.Helper()
	t.Run("lockfree", func(t *testing.T) { fn(t, New(Config{PageSize: 64})) })
}

// retire ends a bodiless test world the way an elimination would.
func retire(t *testing.T, rt *Runtime, w *World) {
	t.Helper()
	if !rt.eliminateOne(w) {
		t.Fatalf("world %v was already terminated", w.pid)
	}
}

func TestAliasWalk(t *testing.T) {
	eachRuntime(t, func(t *testing.T, rt *Runtime) {
		srv := registerBenchWorld(t, rt, "srv", nil, nil)
		if rt.split(srv.pid) {
			t.Fatal("a server that never split claims copies")
		}
		if got := rt.Copies(srv.pid); len(got) != 1 || got[0] != srv {
			t.Fatalf("Copies of an unsplit world = %v, want itself", pidsOf(got))
		}

		// srv -> (a, d); a -> (aa, ad); ad dies. Live: d and aa.
		a, d := forkInto(t, rt, srv)
		aa, ad := forkInto(t, rt, a)
		retire(t, rt, ad)
		// A block the original's handler once ran: its loser is srv's
		// child too, and is no copy of it.
		stray := registerCopy(rt, srv, "alt")
		stray.isServer = false

		if !rt.split(srv.pid) || !rt.split(a.pid) || rt.split(d.pid) {
			t.Fatal("split() must hold for exactly the forked originals")
		}
		got := pidsOf(rt.Copies(srv.pid))
		if len(got) != 2 || got[0] != d.pid || got[1] != aa.pid {
			t.Fatalf("copies = %v, want [%v %v]", got, d.pid, aa.pid)
		}
		// appendCopies appends; it must not clobber what's in buf.
		buf := rt.appendCopies([]*World{stray}, a.pid)
		if len(buf) != 2 || buf[0] != stray || buf[1] != aa {
			t.Fatalf("appendCopies(a) = %v, want the prefix and %v", pidsOf(buf), aa.pid)
		}
		sender := registerBenchWorld(t, rt, "sender", nil, nil)
		if err := sender.Send(srv.pid, "x"); err != nil {
			t.Fatal(err)
		}
		if d.box.size() != 1 || aa.box.size() != 1 || stray.box.size() != 0 {
			t.Fatalf("fan-out reached d=%d aa=%d stray=%d messages, want 1 1 0",
				d.box.size(), aa.box.size(), stray.box.size())
		}

		// The lineage's edges retire with it: when the last copy ends the
		// walk finds nothing, a send has no receiver, and the process
		// table indexes nothing of it.
		retire(t, rt, stray)
		retire(t, rt, d)
		if rt.procs.Indexed() == 0 {
			t.Fatal("edges retired while a copy was still live")
		}
		retire(t, rt, aa)
		if got := rt.Copies(srv.pid); len(got) != 0 {
			t.Fatalf("copies of a dead lineage = %v", pidsOf(got))
		}
		if err := sender.Send(srv.pid, "y"); !errors.Is(err, msg.ErrUnknownReceiver) {
			t.Fatalf("send to a dead lineage = %v, want ErrUnknownReceiver", err)
		}
		if n := rt.procs.Indexed(); n != 0 {
			t.Fatalf("process table still indexes %d parents of a dead lineage", n)
		}
		if !rt.split(srv.pid) {
			t.Fatal("a retired lineage must still read as split (its PID never reverts)")
		}

		// A chain deeper than the walk's stack buffer (16 entries) must
		// still resolve — the buffer spills, it does not truncate.
		leaf := registerBenchWorld(t, rt, "deep", nil, nil)
		root := leaf.pid
		const depth = 40
		for i := 0; i < depth; i++ {
			leaf, _ = forkInto(t, rt, leaf) // the deny side branch stays live
		}
		if got := rt.Copies(root); len(got) != depth+1 {
			t.Fatalf("deep walk found %d targets, want %d", len(got), depth+1)
		}
	})
}

// TestAliasLinearizability is the linearizability-style stress for alias
// resolution: W writers each split their own lineage over and over, in
// performSplit's publish order, while R readers resolve every lineage.
// There is no table to snapshot — an edge is a Forked status over a
// child index, both monotonic — so the assertions are on what a walk
// returns:
//
//   - lineage isolation: resolving writer w's address yields only w's
//     copies, each once;
//   - never empty, never backwards: a lineage with a live copy always
//     resolves to something, and within one reader, once a copy of
//     generation i was seen, no later walk stops short of generation i
//     (an edge, once visible, stays visible until its lineage retires; a
//     copy that forks between the walk's status check and its registry
//     lookup is looked at again);
//   - sequential oracle: when the writers are done, each lineage
//     resolves to exactly the copies a sequential replay leaves live,
//     and retiring those returns the process table's index to empty.
func TestAliasLinearizability(t *testing.T) {
	eachRuntime(t, func(t *testing.T, rt *Runtime) {
		const (
			writers = 8
			rounds  = 100
			readers = 4
		)
		// gen maps a copy's PID to writer<<16 | generation; written
		// before the copy becomes reachable (its original turns Forked).
		var gen sync.Map
		tagOf := func(w, i int) int { return w<<16 | i }
		roots := make([]*World, writers)
		for w := range roots {
			roots[w] = registerBenchWorld(t, rt, fmt.Sprintf("srv-%d", w), nil, nil)
			gen.Store(roots[w].pid, tagOf(w, 0))
		}
		// Writer w, round i: fork the current leaf; the assume-copy is the
		// next leaf, the deny-copy dies on even rounds and stays on odd.
		oracle := make([][]ids.PID, writers)
		split := func(w, i int, leaf *World) *World {
			a, d := registerCopy(rt, leaf, "a"), registerCopy(rt, leaf, "d")
			gen.Store(a.pid, tagOf(w, i+1))
			gen.Store(d.pid, tagOf(w, i+1))
			if err := rt.procs.SetStatus(leaf.pid, proc.Forked); err != nil {
				t.Error(err)
			}
			rt.unregisterWorld(leaf)
			leaf.discardSpace()
			if i%2 == 0 {
				rt.eliminateOne(d)
			} else {
				oracle[w] = append(oracle[w], d.pid)
			}
			return a
		}

		var rg sync.WaitGroup
		var stop atomic.Bool
		for rd := 0; rd < readers; rd++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				var buf []*World
				var deepest [writers]int
				for !stop.Load() {
					for w := range roots {
						if !rt.split(roots[w].pid) {
							continue
						}
						buf = rt.appendCopies(buf[:0], roots[w].pid)
						if len(buf) == 0 {
							t.Errorf("lineage %d resolved to nothing while a copy was live", w)
							return
						}
						maxGen := 0
						for k, c := range buf {
							v, _ := gen.Load(c.pid)
							tag := v.(int)
							if tag>>16 != w {
								t.Errorf("lineage %d resolved to %v of lineage %d", w, c.pid, tag>>16)
								return
							}
							for _, e := range buf[:k] {
								if e == c {
									t.Errorf("lineage %d resolved to %v twice", w, c.pid)
									return
								}
							}
							maxGen = max(maxGen, tag&0xffff)
						}
						if maxGen < deepest[w] {
							t.Errorf("lineage %d regressed: reached generation %d, then only %d", w, deepest[w], maxGen)
							return
						}
						deepest[w] = maxGen
					}
				}
			}()
		}
		leaves := make([]*World, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				leaf := roots[w]
				for i := 0; i < rounds; i++ {
					leaf = split(w, i, leaf)
				}
				leaves[w] = leaf
			}(w)
		}
		wg.Wait()
		stop.Store(true)
		rg.Wait()

		for w := range roots {
			want := append(oracle[w], leaves[w].pid)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			live := rt.Copies(roots[w].pid)
			got := pidsOf(live)
			if len(got) != len(want) {
				t.Fatalf("lineage %d resolves to %d copies, oracle %d", w, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("lineage %d = %v, oracle %v", w, got, want)
				}
			}
			for _, c := range live {
				rt.eliminateOne(c)
			}
		}
		if n := rt.procs.Indexed(); n != 0 {
			t.Fatalf("process table still indexes %d parents after every lineage retired", n)
		}
		if n := rt.LiveWorlds(); n != 0 {
			t.Fatalf("%d worlds still registered", n)
		}
	})
}

// TestRegistryConcurrentReadersWriters hammers the world map and
// subscription index from mixed readers and writers — under -race this
// is the reclamation safety net for the epoch-based tables (a recycled
// table still being probed is a detected race).
func TestRegistryConcurrentReadersWriters(t *testing.T) {
	eachRegistry(t, func(t *testing.T, mk func() *registry) {
		r := mk()
		const (
			pids    = 128
			rounds  = 100
			readers = 4
		)
		// Anchors that stay registered for the whole run.
		for pid := ids.PID(10_000); pid < 10_000+16; pid++ {
			join(r, &World{pid: pid, subPIDs: []ids.PID{9999}})
		}
		stop := make(chan struct{})
		var rg sync.WaitGroup
		for i := 0; i < readers; i++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				var buf []*World
				for {
					select {
					case <-stop:
						return
					default:
					}
					for pid := ids.PID(10_000); pid < 10_000+16; pid++ {
						if r.world(pid) == nil {
							t.Error("anchor world vanished")
							return
						}
					}
					buf = r.appendSubscribers(buf[:0], 9999)
					if len(buf) < 16 {
						t.Errorf("anchor bucket shrank to %d", len(buf))
						return
					}
				}
			}()
		}
		var wg sync.WaitGroup
		for wtr := 0; wtr < 4; wtr++ {
			wg.Add(1)
			go func(wtr int) {
				defer wg.Done()
				base := ids.PID(wtr*pids + 1)
				for round := 0; round < rounds; round++ {
					ws := make([]*World, 0, pids/4)
					for pid := base; pid < base+pids/4; pid++ {
						w := &World{pid: pid, subPIDs: []ids.PID{9999, pid + 50_000}}
						ws = append(ws, w)
						join(r, w)
					}
					for _, w := range ws {
						leave(r, w)
					}
				}
			}(wtr)
		}
		wg.Wait()
		close(stop)
		rg.Wait()
		if n := len(r.snapshotWorlds()); n != 16 {
			t.Fatalf("%d worlds left, want the 16 anchors", n)
		}
	})
}

// TestRegisterCatchUpResolution pins the registration-time catch-up:
// a world whose assumption was already decided before registerWorld ran
// must have it applied immediately — resolved away, or contradicted and
// the world eliminated — because the propagation snapshot that carried
// the resolution may have predated the registration.
func TestRegisterCatchUpResolution(t *testing.T) {
	rt := New(Config{PageSize: 64})

	// Assumption already satisfied: the predicate simplifies away.
	done := rt.procs.Register(ids.None, "done")
	if err := rt.procs.SetStatus(done, proc.Completed); err != nil {
		t.Fatal(err)
	}
	w := registerBenchWorld(t, rt, "late", []ids.PID{done}, nil)
	if w.Speculative() {
		t.Fatal("world still speculative after catch-up of a completed assumption")
	}
	if w.Terminated() {
		t.Fatal("world wrongly eliminated by a satisfied assumption")
	}
	rt.unregisterWorld(w)
	w.discardSpace()

	// Assumption already failed: the world is contradicted at birth.
	dead := rt.procs.Register(ids.None, "dead")
	if err := rt.procs.SetStatus(dead, proc.Failed); err != nil {
		t.Fatal(err)
	}
	w2 := registerBenchWorld(t, rt, "doomed", []ids.PID{dead}, nil)
	if !w2.Terminated() {
		t.Fatal("world not eliminated despite assuming an already-failed process")
	}
	if rt.worldByPID(w2.pid) != nil {
		t.Fatal("eliminated world still registered")
	}
	if n := rt.SelStats().Eliminations; n != 1 {
		t.Fatalf("eliminations = %d, want 1", n)
	}
}
