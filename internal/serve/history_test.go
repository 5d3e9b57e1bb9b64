package serve

import (
	"reflect"
	"testing"
	"time"
)

func TestHistoryOrderUnknownKeepsDeclarationOrder(t *testing.T) {
	h := NewHistory()
	got := h.Order("sort", []string{"a", "b", "c"})
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Order with no history = %v, want %v", got, want)
	}
}

func TestHistoryOrderFastestFirst(t *testing.T) {
	h := NewHistory()
	h.Record("sort", "slow", 100*time.Millisecond)
	h.Record("sort", "fast", time.Millisecond)
	got := h.Order("sort", []string{"slow", "unknown", "fast"})
	// fast (1ms) < slow (100ms), never-observed last in declaration order.
	if want := []int{2, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Order = %v, want %v", got, want)
	}
	// Other kinds don't share statistics.
	got = h.Order("other", []string{"slow", "unknown", "fast"})
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Order for unrelated kind = %v, want %v", got, want)
	}
}

func TestHistoryEWMAAdapts(t *testing.T) {
	h := NewHistory()
	h.Record("q", "x", 10*time.Millisecond)
	// A regression should move the estimate toward the new latency.
	for i := 0; i < 20; i++ {
		h.Record("q", "x", 100*time.Millisecond)
	}
	est, ok := h.Estimate("q", "x")
	if !ok {
		t.Fatal("Estimate lost the entry")
	}
	if est < 90*time.Millisecond {
		t.Fatalf("EWMA = %v after 20 regressed samples, want ≥ 90ms", est)
	}
}

func TestHistoryKindLRUEviction(t *testing.T) {
	h := NewHistoryWithCap(2, 4)
	h.Record("k1", "a", time.Millisecond)
	h.Record("k2", "a", time.Millisecond)
	// Touch k1 so k2 is the LRU victim when k3 arrives.
	h.Record("k1", "a", time.Millisecond)
	h.Record("k3", "a", time.Millisecond)

	if got := h.Kinds(); got != 2 {
		t.Fatalf("kinds retained = %d, want 2", got)
	}
	if got := h.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if snap := h.Kind("k2"); snap.Wins != 0 {
		t.Fatalf("evicted kind still has state: %+v", snap)
	}
	if snap := h.Kind("k1"); snap.Wins != 2 {
		t.Fatalf("recently-used kind was evicted: %+v", snap)
	}
}

func TestHistoryAltEviction(t *testing.T) {
	h := NewHistoryWithCap(4, 2)
	h.Record("k", "a", time.Millisecond)
	h.Record("k", "b", time.Millisecond)
	// Touch a so b is the least-recently-touched when c arrives.
	h.Record("k", "a", time.Millisecond)
	h.Record("k", "c", time.Millisecond)

	if snap := h.Kind("k"); snap.Alts != 2 {
		t.Fatalf("alts retained = %d, want 2", snap.Alts)
	}
	if got := h.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, ok := h.Estimate("k", "b"); ok {
		t.Fatal("evicted alternative still has an estimate")
	}
	if _, ok := h.Estimate("k", "a"); !ok {
		t.Fatal("recently-touched alternative was evicted")
	}
}

func TestOrderUCBColdKindKeepsDeclarationOrder(t *testing.T) {
	h := NewHistory()
	names := []string{"x", "y", "z"}
	for rep := 0; rep < 3; rep++ {
		order, _ := h.OrderUCB("unknown", names, 0.5)
		for i, got := range order {
			if got != i {
				t.Fatalf("cold order = %v, want declaration order", order)
			}
		}
	}
}

func TestOrderUCBTieBreakDeterministic(t *testing.T) {
	h := NewHistory()
	names := []string{"x", "y", "z"}
	// Identical statistics for every alternative: the stable sort must
	// preserve declaration order on every call.
	for _, n := range names {
		h.RecordPlay("tie", n)
		h.Record("tie", n, time.Millisecond)
	}
	for rep := 0; rep < 5; rep++ {
		order, _ := h.OrderUCB("tie", names, 0.5)
		for i, got := range order {
			if got != i {
				t.Fatalf("tied order = %v, want declaration order", order)
			}
		}
	}
}

func TestOrderUCBConvergesUnderSkewedStream(t *testing.T) {
	h := NewHistory()
	names := []string{"slowish", "champ", "dud"}
	// champ wins 90% of a skewed stream fast; slowish takes the rest,
	// slower; dud always loses and genuinely fails half its plays.
	for i := 0; i < 50; i++ {
		for _, n := range names {
			h.RecordPlay("skew", n)
		}
		if i%10 == 0 {
			h.Record("skew", "slowish", 4*time.Millisecond)
		} else {
			h.Record("skew", "champ", time.Millisecond)
		}
		if i%2 == 0 {
			h.RecordFail("skew", "dud")
		}
	}
	order, views := h.OrderUCB("skew", names, 0.5)
	if order[0] != 1 {
		t.Fatalf("order = %v (views %+v), want champ ranked first", order, views)
	}
	if order[2] != 2 {
		t.Fatalf("order = %v, want dud ranked last", order)
	}
}

func TestPredictFoldsRecordedOverhead(t *testing.T) {
	h := NewHistory()
	h.Record("k", "a", time.Millisecond)

	// Before any overhead summary: prediction carries none.
	if _, _, ovh, ok := h.Predict("k", []string{"a"}); !ok || ovh != 0 {
		t.Fatalf("predict = ovh %v ok %v, want 0 overhead before sampling", ovh, ok)
	}

	// A different kind's summary supplies the global fallback.
	h.RecordOverhead("other", 300*time.Microsecond)
	if _, _, ovh, _ := h.Predict("k", []string{"a"}); ovh != 300*time.Microsecond {
		t.Fatalf("fallback overhead = %v, want the global EWMA 300µs", ovh)
	}

	// The kind's own summary takes precedence.
	h.RecordOverhead("k", 100*time.Microsecond)
	if _, _, ovh, _ := h.Predict("k", []string{"a"}); ovh != 100*time.Microsecond {
		t.Fatalf("kind overhead = %v, want 100µs", ovh)
	}
}

func TestNoteSeqSignalStreak(t *testing.T) {
	h := NewHistory()
	if got := h.noteSeqSignal("k", true); got != 1 {
		t.Fatalf("first signal streak = %d, want 1", got)
	}
	if got := h.noteSeqSignal("k", true); got != 2 {
		t.Fatalf("second signal streak = %d, want 2", got)
	}
	if got := h.noteSeqSignal("k", false); got != 0 {
		t.Fatalf("speculate signal should reset the streak, got %d", got)
	}
	if got := h.noteSeqSignal("k", true); got != 1 {
		t.Fatalf("streak after reset = %d, want 1", got)
	}
}
