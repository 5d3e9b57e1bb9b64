package core

import (
	"fmt"
	"testing"

	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/predicate"
)

// registerBenchWorld registers a minimal world carrying the given
// assumptions, without spawning a body. It is the selection-path
// equivalent of a parked speculative process: it sits in the PID table
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
	w := &World{
		rt:         rt,
		name:       name,
		space:      mem.New(rt.store, 4096),
		preds:      preds,
		ownedSpace: true,
	}
	rt.tab.add(w)
	rt.registerWorld(w)
	return w
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
				dummy := bare(rt).pid
				registerBenchWorld(b, rt, "bystander", []ids.PID{dummy}, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				subject := bare(rt)
				victim := registerBenchWorld(b, rt, "victim", nil, []ids.PID{subject.pid})
				// Resolving subject-as-failed simplifies exactly one
				// world: the affected set has size 1 regardless of live.
				rt.tab.setFate(subject, fateFailed)
				rt.propagate([]propEvent{{resolvePID: subject.pid, completed: false}})
				rt.unregisterWorld(victim)
				victim.discardSpace()
			}
		})
	}
}

// BenchmarkSendNoAlias measures the whole per-send runtime path for a
// destination that is no server (predicate snapshot, registry lookup,
// router dispatch) — the message-layer fast path.
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
