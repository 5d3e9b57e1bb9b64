package spec

import (
	"strings"
	"testing"
)

// TestBoundedConfigsSafe exhaustively checks the two CI-bound configs:
// every reachable state satisfies all four safety invariants, and
// every leaf state (no enabled action) is fully resolved — the
// executable counterpart of the BlockTerminates liveness property.
func TestBoundedConfigsSafe(t *testing.T) {
	for _, cfg := range []Config{
		{NAlts: 3, MsgsPerAlt: 2},
		{NAlts: 4, MsgsPerAlt: 1},
	} {
		res := cfg.Explore()
		t.Logf("config %d alts × %d msgs: %d states, %d transitions, %d terminal",
			cfg.NAlts, cfg.MsgsPerAlt, res.States, res.Transitions, res.Deadlocks)
		if res.Violation != nil {
			t.Fatalf("invariant violated: %v\ntrace: %s",
				res.Violation, strings.Join(res.Trace, " -> "))
		}
		if res.BadDeadlock != nil {
			t.Fatalf("terminal state not fully resolved: %+v", *res.BadDeadlock)
		}
		if res.Deadlocks == 0 {
			t.Fatal("no terminal states found — the model never finishes a block")
		}
	}
}

// TestMutationHasTeeth proves the spec can actually catch the bug class
// it exists for: with SkipElim (the elimination of contradicted copies
// dropped on the not-completed branch), the checker must produce a
// NoObservableLosers counterexample — a flushed copy that assumed a
// loser would win.
func TestMutationHasTeeth(t *testing.T) {
	cfg := Config{NAlts: 3, MsgsPerAlt: 1, SkipElim: true}
	res := cfg.Explore()
	if res.Violation == nil {
		t.Fatal("SkipElim mutation explored clean — the invariants have no teeth")
	}
	if !strings.Contains(res.Violation.Error(), "NoObservableLosers") {
		t.Fatalf("expected a NoObservableLosers counterexample, got: %v", res.Violation)
	}
	if len(res.Trace) == 0 {
		t.Fatal("violation produced no counterexample trace")
	}
	t.Logf("counterexample (%d steps): %s", len(res.Trace), strings.Join(res.Trace, " -> "))
}

// TestDropOnSplitIsCaught: with DropOnSplit (a split's assume side does
// not take the message that split it), the checker must produce a
// WinnerWritesSurvive counterexample — a live copy that assumes an
// alternative completes without holding all of its messages.
func TestDropOnSplitIsCaught(t *testing.T) {
	cfg := Config{NAlts: 3, MsgsPerAlt: 1, DropOnSplit: true}
	res := cfg.Explore()
	if res.Violation == nil {
		t.Fatal("DropOnSplit mutation explored clean — WinnerWritesSurvive has no teeth")
	}
	if !strings.Contains(res.Violation.Error(), "WinnerWritesSurvive") {
		t.Fatalf("expected a WinnerWritesSurvive counterexample, got: %v", res.Violation)
	}
	t.Logf("counterexample (%d steps): %s", len(res.Trace), strings.Join(res.Trace, " -> "))
}

// TestClaimIsExclusive spot-checks the arbiter action directly: from a
// state with two passed alternatives, the two Claim transitions lead to
// different winners, and in neither successor is a second Claim enabled.
func TestClaimIsExclusive(t *testing.T) {
	cfg := Config{NAlts: 2, MsgsPerAlt: 0}
	s := cfg.Init()
	s.Alt[0], s.Alt[1] = StPassed, StPassed
	var claims []Trans
	for _, tr := range cfg.Successors(s) {
		if strings.HasPrefix(tr.Label, "Claim") {
			claims = append(claims, tr)
		}
	}
	if len(claims) != 2 {
		t.Fatalf("expected 2 enabled Claims, got %d", len(claims))
	}
	for _, tr := range claims {
		for _, tr2 := range cfg.Successors(tr.To) {
			if strings.HasPrefix(tr2.Label, "Claim") {
				t.Fatalf("second Claim enabled after %s", tr.Label)
			}
		}
	}
}
