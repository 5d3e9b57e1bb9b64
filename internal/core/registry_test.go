package core

import (
	"sort"
	"sync"
	"testing"

	"altrun/internal/ids"
	"altrun/internal/proc"
)

// Unit tests for the world registry — the world map and the
// predicate-subscription index.

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
