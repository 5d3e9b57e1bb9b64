package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"altrun/internal/arbiter"
)

// The core's allocation ratchet and retention probe for a two-way
// block: what one block allocates may only shrink, and what a runtime
// keeps of a finished block is its two PIDs' fates — two bits each. Both
// skip under -race, which allocates on its own account.

// twoWayBlockAllocs bounds the objects one warmed-up two-way block
// (twoWayBlock) allocates.
const twoWayBlockAllocs = 30

// twoWayBlock returns a commit_null-shaped block on a fresh real-mode
// runtime: a writer and a loser asleep until eliminated, synchronous
// elimination and a local arbiter, whose setup is the two spawns the
// backend's workers serve. The runtime is shut down at the test's
// cleanup.
func twoWayBlock(tb testing.TB) (rt *Runtime, block func()) {
	rt = New(Config{})
	root, err := rt.NewRootWorld("root", 64<<10)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		rt.Shutdown(root)
		rt.Wait()
	})
	if err := root.WriteUint64(0, 1); err != nil {
		tb.Fatal(err)
	}
	alts := []Alt{
		{Name: "write", Body: func(w *World) error { return w.WriteUint64(0, 2) }},
		{Name: "sleep", Body: func(w *World) error {
			w.Sleep(time.Second)
			if w.Cancelled() {
				return ErrEliminated
			}
			return w.WriteUint64(0, 3)
		}},
	}
	return rt, func() {
		var arb arbiter.Local
		claim := func(w *World) bool { return arb.Claim(w.PID()) }
		if _, err := root.RunAlt(Options{SyncElimination: true, Claim: claim}, alts...); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestTwoWayBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	_, block := twoWayBlock(t)
	for i := 0; i < 100; i++ { // warm the workers and the pools
		block()
	}
	if allocs := testing.AllocsPerRun(1000, block); allocs > twoWayBlockAllocs {
		t.Fatalf("a two-way block allocates %.1f objects, want <= %d", allocs, twoWayBlockAllocs)
	} else {
		t.Logf("a two-way block allocates %.1f objects", allocs)
	}
}

// TestLiveHeapFlatAcrossBlocks is the heap probe: one runtime runs
// 100 000 two-way blocks, then 300 000 more, and the live heap after a
// GC may grow by at most 1 B per block between the two readings. Each
// block leaves two terminal PIDs behind, and a PID that ended is two
// bits in its segment (0.5 B per block plus the segment headers).
//
// The root's page chain runs deep for as long as a killed loser that
// has not exited yet still shares a layer of it (up to a few hundred
// 4 KiB layers under CPU contention), and folds back at the first fork
// after it exits. So each reading is the least of three, each taken
// after the stragglers had a moment to exit and a few more blocks let
// the chain fold.
func TestLiveHeapFlatAcrossBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	first, second := 100_000, 400_000
	if testing.Short() {
		first, second = 25_000, 100_000
	}
	_, block := twoWayBlock(t)
	liveHeap := func() uint64 {
		least := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			time.Sleep(10 * time.Millisecond)
			for i := 0; i < 16; i++ {
				block()
			}
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC() // the second cycle empties sync.Pool's victim caches
			runtime.ReadMemStats(&ms)
			least = min(least, ms.HeapAlloc)
		}
		return least
	}
	for i := 0; i < first; i++ {
		block()
	}
	at1 := liveHeap()
	for i := first; i < second; i++ {
		block()
	}
	at2 := liveHeap()
	perBlock := (float64(at2) - float64(at1)) / float64(second-first)
	t.Logf("live heap %.2f MB after %d blocks, %.2f MB after %d: %.2f B per block",
		float64(at1)/1e6, first, float64(at2)/1e6, second, perBlock)
	if perBlock > 1 {
		t.Fatalf("the live heap grows %.2f B per two-way block, want <= 1", perBlock)
	}
}
