package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"altrun/internal/core"
)

// dominantHistory seeds a kind where alternative "a" reliably wins at
// 1ms while "b" and "c" are slower fallbacks that never genuinely fail,
// and the per-block overhead is a solid 200µs — the PI < 1 regime where
// sequential execution saves nearly one block overhead per job.
func dominantHistory() *History {
	h := NewHistory()
	for i := 0; i < 40; i++ {
		h.RecordPlay("dom", "a")
		h.Record("dom", "a", time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		h.RecordPlay("dom", "b")
		h.RecordTooLate("dom", "b", 2500*time.Microsecond)
		h.RecordPlay("dom", "c")
		h.RecordTooLate("dom", "c", 3*time.Millisecond)
	}
	h.RecordOverhead("dom", 200*time.Microsecond)
	return h
}

// uncertainHistory seeds a kind with three equal-cost alternatives that
// each win a third of the time and genuinely fail otherwise — the
// PI > 1 regime where sequential fall-through pays for failed waves.
func uncertainHistory() *History {
	h := NewHistory()
	for _, name := range []string{"p0", "p1", "p2"} {
		for i := 0; i < 10; i++ {
			h.RecordPlay("unc", name)
		}
		for i := 0; i < 3; i++ {
			h.Record("unc", name, 2*time.Millisecond)
		}
		for i := 0; i < 4; i++ {
			h.RecordFail("unc", name)
		}
	}
	h.RecordOverhead("unc", 150*time.Microsecond)
	return h
}

func newTestController(h *History) *Controller {
	return newController(h)
}

func TestDecideColdStartSpeculatesFullDegree(t *testing.T) {
	c := newTestController(NewHistory())
	d := c.Decide("new-kind", []string{"x", "y", "z"}, 3)
	if d.Kind != decideSpeculate {
		t.Fatalf("cold decision = %v, want speculate", d.Kind)
	}
	if d.Degree != 3 {
		t.Fatalf("cold degree = %d, want full width 3", d.Degree)
	}
	if want := []int{0, 1, 2}; fmt.Sprint(d.Order) != fmt.Sprint(want) {
		t.Fatalf("cold order = %v, want declaration order %v", d.Order, want)
	}
}

func TestDecideSequentialNeedsConfirmedSignal(t *testing.T) {
	c := newTestController(dominantHistory())
	names := []string{"a", "b", "c"}

	// First sequential-favoring prediction: still speculates (one EWMA
	// dip must not flap the policy).
	d1 := c.Decide("dom", names, 3)
	if d1.Kind != decideSpeculate {
		t.Fatalf("first decision = %v, want speculate (unconfirmed signal)", d1.Kind)
	}
	if d1.PredPI >= 1 == false && d1.PredPI == 0 {
		t.Fatalf("first decision carries no prediction: %+v", d1)
	}

	// Second consecutive signal: commits to sequential fall-through.
	d2 := c.Decide("dom", names, 3)
	if d2.Kind != decideSequential {
		t.Fatalf("second decision = %v (PI %.3f), want sequential", d2.Kind, d2.PredPI)
	}
	if d2.Degree != 1 {
		t.Fatalf("sequential degree = %d, want 1", d2.Degree)
	}
	if d2.PredPI >= 1 {
		t.Fatalf("sequential chosen with PredPI %.3f ≥ 1", d2.PredPI)
	}
	if d2.Order[0] != 0 {
		t.Fatalf("sequential order = %v, want the dominant alternative first", d2.Order)
	}
}

func TestDecideKeepsSpeculatingWhenUncertain(t *testing.T) {
	c := newTestController(uncertainHistory())
	names := []string{"p0", "p1", "p2"}
	for i := 0; i < 5; i++ {
		d := c.Decide("unc", names, 3)
		if d.Kind == decideSequential {
			t.Fatalf("decision %d = sequential (PI %.3f) on an uncertain kind", i, d.PredPI)
		}
		if d.Degree != 3 {
			t.Fatalf("decision %d degree = %d, want 3 (every path absorbs fall-through mass)", i, d.Degree)
		}
	}
}

func TestDecideDegreeRuleCutsUselessAlternatives(t *testing.T) {
	h := NewHistory()
	// "first" wins at 1ms but genuinely fails ~30% of the time, so
	// "second" absorbs real fall-through mass. "third" guards a
	// fall-through chain that almost never happens and never wins:
	// its marginal gain is below one block overhead.
	for i := 0; i < 20; i++ {
		h.RecordPlay("deg", "first")
		h.RecordPlay("deg", "second")
	}
	for i := 0; i < 14; i++ {
		h.Record("deg", "first", time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		h.RecordFail("deg", "first")
		h.Record("deg", "second", 1200*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.RecordPlay("deg", "third")
		h.RecordTooLate("deg", "third", 1500*time.Microsecond)
	}
	h.RecordOverhead("deg", 150*time.Microsecond)

	c := newTestController(h)
	d := c.Decide("deg", []string{"first", "second", "third"}, 3)
	if d.Kind != decideSpeculate {
		t.Fatalf("decision = %v (PI %.3f), want speculate", d.Kind, d.PredPI)
	}
	if d.Degree != 2 {
		t.Fatalf("degree = %d, want 2: third's marginal gain is under one overhead", d.Degree)
	}
}

func TestDecideExploreTickRefreshesStatistics(t *testing.T) {
	h := dominantHistory()
	c := newController(h)
	c.exploreEvery = 4
	names := []string{"a", "b", "c"}

	var kinds []decisionKind
	for i := 0; i < 8; i++ {
		kinds = append(kinds, c.Decide("dom", names, 3).Kind)
	}
	// Ordinals 4 and 8 are explore ticks; ordinal 1 is the unconfirmed
	// first sequential signal; the rest are sequential.
	for _, ord := range []int{3, 7} {
		if kinds[ord] != decideExplore {
			t.Fatalf("ordinal %d = %v, want explore (kinds: %v)", ord+1, kinds[ord], kinds)
		}
	}
	if kinds[0] != decideSpeculate {
		t.Fatalf("ordinal 1 = %v, want speculate (unconfirmed signal)", kinds[0])
	}
	for _, ord := range []int{1, 2, 4, 5, 6} {
		if kinds[ord] != decideSequential {
			t.Fatalf("ordinal %d = %v, want sequential (kinds: %v)", ord+1, kinds[ord], kinds)
		}
	}
	snap := h.Kind("dom")
	if snap.ExploreDecisions != 2 || snap.SeqDecisions != 5 || snap.SpecDecisions != 1 {
		t.Fatalf("kind counters = %+v, want 2 explore / 5 seq / 1 spec", snap)
	}
}

func TestPolicyStatsNilController(t *testing.T) {
	var c *Controller
	if c.Enabled() {
		t.Fatal("nil controller reports enabled")
	}
	if s := c.Stats(); s.Enabled || s.Decisions != 0 {
		t.Fatalf("nil controller stats = %+v, want zero view", s)
	}
}

// TestAdaptivePoolSequentialOnDominantKind is the end-to-end loop: a
// pool under a concurrent job stream whose kind has one dominant
// alternative must learn, purely from its own probe-fed history, to
// stop speculating on it.
func TestAdaptivePoolSequentialOnDominantKind(t *testing.T) {
	p, err := NewPool(Config{Workers: 4, SpecTokens: 8, MaxDegree: 3, QueueDepth: 8,
		Adapt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())
	burn := func(iters int) func(w *core.World) error {
		return func(w *core.World) error {
			acc := uint64(7)
			for i := 0; i < iters; i++ {
				acc = acc*6364136223846793005 + 1442695040888963407
				if i&8191 == 0 {
					if w.Cancelled() {
						return errors.New("cancelled")
					}
					runtime.Gosched()
				}
			}
			return w.WriteUint64(0, acc|1)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := 0; i < 13; i++ {
				tk, err := p.Submit(Job{
					Kind: "dom",
					Name: fmt.Sprintf("c%d-%d", client, i),
					Alts: []core.Alt{
						{Name: "lean", Body: burn(100_000)},
						{Name: "mid", Body: burn(300_000)},
						{Name: "heavy", Body: burn(300_000)},
					},
					SpaceSize: 4096,
					Deadline:  10 * time.Second,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	snap := p.History().Kind("dom")
	if snap.Wins == 0 {
		t.Fatal("probe recorded no wins")
	}
	if snap.SeqDecisions == 0 {
		t.Fatalf("controller never chose sequential execution: %+v (policy %+v)",
			snap, p.PolicyStats())
	}
	stats := p.PolicyStats()
	if stats.Decisions != 52 {
		t.Fatalf("decisions = %d, want 52", stats.Decisions)
	}
}

// TestAdaptiveConcurrentSubmitRace drives a 64-way job stream over four
// kinds through an adaptive pool while a reader snapshots the policy and
// pool counters — the -race CI stress for the controller's decision
// path and its counters. Every job must commit, and the controller must
// have decided each one exactly once.
func TestAdaptiveConcurrentSubmitRace(t *testing.T) {
	p, err := NewPool(Config{Workers: 4, SpecTokens: 8, MaxDegree: 3, QueueDepth: 64, Adapt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := p.PolicyStats(); !s.Enabled {
				t.Error("adaptive pool reports the controller disabled")
				return
			}
			_ = p.Stats()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < 64; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				tk, err := p.Submit(Job{
					Kind: fmt.Sprintf("race-%d", client%4),
					Name: fmt.Sprintf("r%d-%d", client, i),
					Alts: []core.Alt{
						{Name: "a", Body: func(w *core.World) error { return w.WriteUint64(0, 1) }},
						{Name: "b", Body: func(w *core.World) error {
							time.Sleep(200 * time.Microsecond)
							return w.WriteUint64(0, 2)
						}},
					},
					SpaceSize: 4096,
					Deadline:  10 * time.Second,
				})
				if err != nil {
					t.Error(err)
					return
				}
				res, err := tk.Wait(context.Background())
				if err != nil || res.Status != StatusDone {
					t.Errorf("client %d job %d: %v %v", client, i, err, res.Status)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if t.Failed() {
		return
	}
	if got := p.Stats().JobsCompleted; got != 256 {
		t.Fatalf("jobs completed = %d, want 256", got)
	}
	if got := p.PolicyStats().Decisions; got != 256 {
		t.Fatalf("decisions = %d, want one per job (256)", got)
	}
	if got := p.Stats().TokensInUse; got != 0 {
		t.Fatalf("tokens in use after the stream = %d, want 0", got)
	}
}
