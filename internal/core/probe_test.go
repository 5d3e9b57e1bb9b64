package core

import (
	"sync"
	"testing"
	"time"

	"altrun/internal/ids"
)

// testProbe records every AltProbe callback for assertions.
type testProbe struct {
	mu        sync.Mutex
	spawned   []ids.PID
	setupDone int
	setupN    int
	faults    map[ids.PID]int64
	exits     map[ids.PID]string
	copies    map[ids.PID]int64
	committed ids.PID
}

func newTestProbe() *testProbe {
	return &testProbe{
		faults: make(map[ids.PID]int64),
		exits:  make(map[ids.PID]string),
		copies: make(map[ids.PID]int64),
	}
}

func (p *testProbe) ChildSpawned(pid ids.PID, _ string, _ time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spawned = append(p.spawned, pid)
}

func (p *testProbe) SetupDone(_ time.Time, spawned int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setupDone++
	p.setupN = spawned
}

func (p *testProbe) ChildFault(pid ids.PID, pages int64, _ time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults[pid] += pages
}

func (p *testProbe) ChildExit(pid ids.PID, outcome string, _ time.Time, copies int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exits[pid] = outcome
	p.copies[pid] = copies
}

func (p *testProbe) Committed(winner ids.PID, _ time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.committed = winner
}

// TestAltProbeObservesBlock drives a real-mode block through a probe
// and checks the full causal record: spawns, setup, faults, exits with
// outcomes, and the commit.
func TestAltProbeObservesBlock(t *testing.T) {
	rt := New(Config{})
	root, err := rt.NewRootWorld("probe-root", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(root)
	// Make the target pages resident in the parent so child writes are
	// COW copies (a write to an absent page is a plain alloc).
	for _, off := range []int64{0, 8192} {
		if err := root.WriteUint64(off, 1); err != nil {
			t.Fatal(err)
		}
	}

	probe := newTestProbe()
	res, err := root.RunAlt(Options{SyncElimination: true, Probe: probe},
		Alt{Name: "loser", Body: func(w *World) error {
			return ErrGuardFailed
		}},
		Alt{Name: "winner", Body: func(w *World) error {
			// Lose the report race on purpose so the guard-fail exit is
			// ordered before the commit.
			time.Sleep(10 * time.Millisecond)
			// Two separate page writes so the probe sees COW faults.
			if err := w.WriteUint64(0, 42); err != nil {
				return err
			}
			return w.WriteUint64(8192, 43)
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "winner" {
		t.Fatalf("winner = %q", res.Name)
	}

	// A losing child's exit callback may trail RunAlt's return.
	deadline := time.Now().Add(2 * time.Second)
	for {
		probe.mu.Lock()
		n := len(probe.exits)
		probe.mu.Unlock()
		if n == 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	probe.mu.Lock()
	defer probe.mu.Unlock()
	if len(probe.spawned) != 2 {
		t.Fatalf("spawned = %v, want 2 pids", probe.spawned)
	}
	if probe.setupDone != 1 || probe.setupN != 2 {
		t.Fatalf("setupDone = %d (n=%d), want exactly one callback for 2 children",
			probe.setupDone, probe.setupN)
	}
	if got := probe.exits[res.Winner]; got != OutcomeWin {
		t.Fatalf("winner outcome = %q, want %q", got, OutcomeWin)
	}
	wins, fails := 0, 0
	for _, out := range probe.exits {
		switch out {
		case OutcomeWin:
			wins++
		case OutcomeGuardFail:
			fails++
		}
	}
	if wins != 1 || fails != 1 {
		t.Fatalf("exits = %v, want one win and one guard-fail", probe.exits)
	}
	if probe.committed != res.Winner {
		t.Fatalf("committed = %v, want %v", probe.committed, res.Winner)
	}
	if probe.faults[res.Winner] == 0 {
		t.Fatalf("no fault events for the winner (faults = %v)", probe.faults)
	}
	if probe.copies[res.Winner] != res.WinnerCopies {
		t.Fatalf("probe copies = %d, result WinnerCopies = %d",
			probe.copies[res.Winner], res.WinnerCopies)
	}
}

// TestResultPhaseDecomposition checks Setup+Runtime+Selection == Elapsed
// exactly and that each phase is sane.
func TestResultPhaseDecomposition(t *testing.T) {
	rt := New(Config{})
	root, err := rt.NewRootWorld("phases-root", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(root)

	res, err := root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "work", Body: func(w *World) error {
			time.Sleep(5 * time.Millisecond)
			return w.WriteUint64(0, 1)
		}},
		Alt{Name: "slow", Body: func(w *World) error {
			time.Sleep(50 * time.Millisecond)
			return w.WriteUint64(0, 2)
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Setup < 0 || res.Runtime < 0 || res.Selection < 0 {
		t.Fatalf("negative phase: %+v", res)
	}
	if sum := res.Setup + res.Runtime + res.Selection; sum != res.Elapsed {
		t.Fatalf("setup+runtime+selection = %v, elapsed = %v", sum, res.Elapsed)
	}
	if res.Runtime < 4*time.Millisecond {
		t.Fatalf("runtime phase %v does not cover the 5ms winner body", res.Runtime)
	}
}

// TestProbeNilIsFree: a block without a probe behaves identically (the
// nil checks compile away the observation).
func TestProbeNilIsFree(t *testing.T) {
	rt := New(Config{})
	root, err := rt.NewRootWorld("noprobe-root", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(root)
	res, err := root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "only", Body: func(w *World) error { return w.WriteUint64(0, 7) }},
	)
	if err != nil || res.Name != "only" {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
}

// TestFanoutProbeForwardsToAll: every callback reaches every probe, in
// order, and nils are filtered out.
func TestFanoutProbeForwardsToAll(t *testing.T) {
	a, b := newTestProbe(), newTestProbe()
	p := FanoutProbe(nil, a, nil, b)
	now := time.Now()
	p.ChildSpawned(ids.PID(1), "alt", now)
	p.SetupDone(now, 2)
	p.ChildFault(ids.PID(1), 3, now)
	p.ChildExit(ids.PID(1), OutcomeWin, now, 3)
	p.Committed(ids.PID(1), now)
	for i, probe := range []*testProbe{a, b} {
		probe.mu.Lock()
		if len(probe.spawned) != 1 || probe.setupDone != 1 || probe.faults[1] != 3 ||
			probe.exits[1] != OutcomeWin || probe.committed != 1 {
			t.Fatalf("probe %d missed events: %+v", i, probe)
		}
		probe.mu.Unlock()
	}
}

// TestFanoutProbeDegenerateCases: all-nil collapses to nil (keeping the
// probe-free fast path) and a single probe is returned unwrapped.
func TestFanoutProbeDegenerateCases(t *testing.T) {
	if got := FanoutProbe(); got != nil {
		t.Fatalf("empty fanout = %v, want nil", got)
	}
	if got := FanoutProbe(nil, nil); got != nil {
		t.Fatalf("all-nil fanout = %v, want nil", got)
	}
	p := newTestProbe()
	if got := FanoutProbe(nil, p); got != AltProbe(p) {
		t.Fatalf("single-probe fanout = %v, want the probe unwrapped", got)
	}
}

// TestChildExitCancelledOutcome: a body that errors because its world
// was eliminated reports OutcomeCancelled, not OutcomeGuardFail — the
// distinction the serve layer's failure statistics depend on.
func TestChildExitCancelledOutcome(t *testing.T) {
	rt := New(Config{})
	root, err := rt.NewRootWorld("cancel-outcome-root", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(root)

	probe := newTestProbe()
	// The winner waits until the casualty's body has started: a child
	// eliminated before that reports OutcomeUnstarted instead.
	started := make(chan struct{})
	res, err := root.RunAlt(Options{SyncElimination: true, Probe: probe},
		Alt{Name: "winner", Body: func(w *World) error {
			<-started
			return w.WriteUint64(0, 1)
		}},
		Alt{Name: "casualty", Body: func(w *World) error {
			close(started)
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if w.Cancelled() {
					return ErrGuardFailed // a cancel-induced error, not a real failure
				}
				time.Sleep(100 * time.Microsecond)
			}
			return w.WriteUint64(0, 2)
		}},
	)
	if err != nil || res.Name != "winner" {
		t.Fatalf("res = %+v, err = %v", res, err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		probe.mu.Lock()
		n := len(probe.exits)
		probe.mu.Unlock()
		if n == 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	probe.mu.Lock()
	defer probe.mu.Unlock()
	wins, cancelled := 0, 0
	for _, out := range probe.exits {
		switch out {
		case OutcomeWin:
			wins++
		case OutcomeCancelled:
			cancelled++
		}
	}
	if wins != 1 || cancelled != 1 {
		t.Fatalf("exits = %v, want one win and one cancelled", probe.exits)
	}
}
