package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestFirstAlternativeRunsFirst: with one processor, a block's first
// alternative is the one that runs. Real mode readies it last, so it
// takes the spawning thread's run-next slot and commits while its
// siblings still wait in the run queue; eliminated there, they never
// enter their bodies and report OutcomeUnstarted.
func TestFirstAlternativeRunsFirst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := New(Config{})
	root, err := rt.NewRootWorld("order-root", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(root)

	const blocks, width = 200, 3
	firstFirst, siblingsUnstarted := 0, 0
	for b := 0; b < blocks; b++ {
		var mu sync.Mutex
		var entered []int
		alts := make([]Alt, width)
		for i := range alts {
			alts[i] = Alt{Body: func(w *World) error {
				mu.Lock()
				entered = append(entered, i)
				mu.Unlock()
				return w.WriteUint64(0, uint64(i))
			}}
		}
		probe := newTestProbe()
		res, err := root.RunAlt(Options{SyncElimination: true, Probe: probe}, alts...)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		// A loser's exit may trail RunAlt's return.
		deadline := time.Now().Add(2 * time.Second)
		for {
			probe.mu.Lock()
			n := len(probe.exits)
			probe.mu.Unlock()
			if n == width || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}

		mu.Lock()
		ran := append([]int(nil), entered...)
		mu.Unlock()
		probe.mu.Lock()
		if len(probe.exits) != width || len(probe.spawned) != width {
			t.Fatalf("block %d: %d exits of %d spawned, want %d", b, len(probe.exits), len(probe.spawned), width)
		}
		unstarted := 0
		for k, pid := range probe.spawned {
			out, didRun := probe.exits[pid], slices.Contains(ran, k)
			switch {
			case pid == res.Winner && out != OutcomeWin:
				t.Fatalf("block %d: winner reported %q", b, out)
			case out == OutcomeUnstarted && didRun:
				t.Fatalf("block %d: alternative %d entered its body but reported %q", b, k, out)
			case out != OutcomeUnstarted && !didRun:
				t.Fatalf("block %d: alternative %d never entered its body but reported %q", b, k, out)
			case out == OutcomeUnstarted:
				unstarted++
			}
		}
		probe.mu.Unlock()
		if len(ran) > 0 && ran[0] == 0 {
			firstFirst++
		}
		if res.Index == 0 && unstarted == width-1 {
			siblingsUnstarted++
		}
	}
	if raceEnabled {
		return // the race detector randomises the run-next slot
	}
	if firstFirst < blocks-1 {
		t.Fatalf("alternative 0 entered its body first in %d of %d blocks, want >= %d", firstFirst, blocks, blocks-1)
	}
	if siblingsUnstarted < blocks-1 {
		t.Fatalf("alternative 0 won with both siblings unstarted in %d of %d blocks, want >= %d",
			siblingsUnstarted, blocks, blocks-1)
	}
}
