package core

import (
	"fmt"
	"testing"

	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/predicate"
	"altrun/internal/proc"
)

// registerBenchWorld registers a minimal world carrying the given
// assumptions, without spawning a body. It is the selection-path
// equivalent of a parked speculative process: it sits in the registry
// and (dis)appears from predicate-subscription buckets.
func registerBenchWorld(tb testing.TB, rt *Runtime, name string, must, cant []ids.PID) *World {
	preds, err := predicate.New().WithFail(cant...)
	for _, p := range must {
		if err == nil {
			preds, err = preds.WithComplete(p)
		}
	}
	if err != nil {
		tb.Fatal(err)
	}
	return registerBodiless(rt, ids.None, name, preds, false)
}

// registerCopy registers a bodiless split copy of the server world orig
// (its child in the process table, as cloneServer makes it).
func registerCopy(rt *Runtime, orig *World, name string) *World {
	return registerBodiless(rt, orig.pid, name, predicate.New(), true)
}

func registerBodiless(rt *Runtime, parent ids.PID, name string, preds *predicate.Set, server bool) *World {
	w := &World{
		rt:         rt,
		pid:        rt.procs.Register(parent, name),
		name:       name,
		space:      mem.New(rt.store, 4096),
		preds:      preds,
		box:        rt.be.newInbox(),
		ownedSpace: true,
		isServer:   server,
	}
	rt.registerWorld(w)
	return w
}

// forkInto replaces orig with two registered copies in performSplit's
// publish order: copies registered, edge visible, original unregistered.
func forkInto(tb testing.TB, rt *Runtime, orig *World) (assume, deny *World) {
	assume = registerCopy(rt, orig, orig.name+"+")
	deny = registerCopy(rt, orig, orig.name+"-")
	if err := rt.procs.SetStatus(orig.pid, proc.Forked); err != nil {
		tb.Fatal(err)
	}
	rt.unregisterWorld(orig)
	return assume, deny
}

// BenchmarkPropagateScaling measures the cost of one predicate
// resolution while `live` unrelated worlds are registered. The affected
// set is constant (one subscriber world per event), so commit-side
// propagation cost must stay flat as the live-world count grows —
// the O(affected-set) claim. Before the subscription index, propagate
// scanned every live world per event, so this grew linearly.
func BenchmarkPropagateScaling(b *testing.B) {
	for _, live := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			rt := New(Config{})
			// Bystanders: each assumes a distinct PID that never
			// resolves, so none of them are in the affected set.
			for i := 0; i < live; i++ {
				dummy := rt.procs.Register(ids.None, "dummy")
				registerBenchWorld(b, rt, "bystander", []ids.PID{dummy}, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				subject := rt.procs.Register(ids.None, "subject")
				victim := registerBenchWorld(b, rt, "victim", nil, []ids.PID{subject})
				// Resolving subject-as-failed simplifies exactly one
				// world: the affected set has size 1 regardless of live.
				rt.propagate([]propEvent{{resolvePID: subject, completed: false}})
				rt.unregisterWorld(victim)
				victim.discardSpace()
			}
		})
	}
}

// BenchmarkAliasResolve measures destination expansion on the send
// path. The overwhelmingly common case is a destination that never
// split; it must not pay for the split machinery.
func BenchmarkAliasResolve(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		rt := New(Config{})
		w := registerBenchWorld(b, rt, "dest", nil, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rt.split(w.pid) || rt.reg.world(w.pid) == nil {
				b.Fatal("an unsplit, registered destination did not resolve to itself")
			}
		}
	})
	b.Run("split2", func(b *testing.B) {
		rt := New(Config{})
		orig := registerBenchWorld(b, rt, "orig", nil, nil)
		forkInto(b, rt, orig)
		var buf [8]*World
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := rt.appendCopies(buf[:0], orig.pid); len(got) != 2 {
				b.Fatalf("resolved %d targets, want 2", len(got))
			}
		}
	})
	b.Run("chain4", func(b *testing.B) {
		rt := New(Config{})
		orig := registerBenchWorld(b, rt, "orig", nil, nil)
		// Two generations of splits: orig -> (g1a, g1b); g1a -> (g2a, g2b).
		g1a, _ := forkInto(b, rt, orig)
		forkInto(b, rt, g1a)
		var buf [8]*World
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := rt.appendCopies(buf[:0], orig.pid); len(got) != 3 {
				b.Fatalf("resolved %d targets, want 3", len(got))
			}
		}
	})
}

// BenchmarkSendNoAlias measures the whole per-send runtime path for an
// unsplit destination (predicate snapshot, alias check, router
// dispatch) — the message-layer fast path.
func BenchmarkSendNoAlias(b *testing.B) {
	rt := New(Config{})
	sender := registerBenchWorld(b, rt, "sender", nil, nil)
	dest := registerBenchWorld(b, rt, "dest", nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Send(dest.pid, i); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			b.StopTimer()
			dest.box.drain() // keep the inbox from growing without bound
			b.StartTimer()
		}
	}
}
