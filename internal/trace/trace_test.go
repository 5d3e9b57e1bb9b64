package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"altrun/internal/ids"
)

func TestAddAndCount(t *testing.T) {
	l := NewLog()
	now := time.Unix(0, 0)
	l.Add(now, KindSpawn, ids.PID(1), "child 1")
	l.Add(now, KindSpawn, ids.PID(2), "child 2")
	l.Add(now, KindCommit, ids.PID(1), "won")
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Count(KindSpawn) != 2 || l.Count(KindCommit) != 1 || l.Count(KindTooLate) != 0 {
		t.Fatal("counts wrong")
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(time.Now(), KindSpawn, ids.PID(1), "x")
	l.Addf(time.Now(), KindSpawn, ids.PID(1), "x %d", 1)
	if l.Len() != 0 || l.Count(KindSpawn) != 0 || l.Events() != nil {
		t.Fatal("nil log must discard")
	}
	l.Reset()
}

func TestAddf(t *testing.T) {
	l := NewLog()
	l.Addf(time.Unix(5, 0), KindMsgSplit, ids.PID(7), "into %d worlds", 2)
	evs := l.Events()
	if len(evs) != 1 || evs[0].Detail != "into 2 worlds" {
		t.Fatalf("events = %v", evs)
	}
}

func TestEventsIsCopy(t *testing.T) {
	l := NewLog()
	l.Add(time.Unix(0, 0), KindSpawn, ids.PID(1), "a")
	evs := l.Events()
	evs[0].Detail = "mutated"
	if l.Events()[0].Detail != "a" {
		t.Fatal("Events must return a copy")
	}
}

func TestReset(t *testing.T) {
	l := NewLog()
	l.Add(time.Unix(0, 0), KindSpawn, ids.PID(1), "a")
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("Reset must clear")
	}
}

func TestDumpAndStrings(t *testing.T) {
	l := NewLog()
	l.Add(time.Unix(0, 0).UTC(), KindEliminate, ids.PID(3), "sibling of winner")
	d := l.Dump()
	if !strings.Contains(d, "eliminate") || !strings.Contains(d, "p3") {
		t.Fatalf("Dump = %q", d)
	}
	if Kind(999).String() == "" {
		t.Fatal("unknown kind must render")
	}
	for k := KindSpawn; k <= KindVote; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
}

func TestConcurrentAdd(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Add(time.Now(), KindMsgSend, ids.PID(1), "m")
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("Len = %d, want 800", l.Len())
	}
}

func TestSelCountersSnapshot(t *testing.T) {
	var c SelCounters
	c.Resolutions.Add(3)
	c.SubscribersVisited.Add(7)
	c.Eliminations.Add(2)
	c.ShardContention.Add(1)
	c.AliasWalks.Add(4)
	s := c.Snapshot()
	if s.Resolutions != 3 || s.SubscribersVisited != 7 || s.Eliminations != 2 ||
		s.ShardContention != 1 || s.AliasWalks != 4 {
		t.Fatalf("snapshot = %+v", s)
	}
	// A snapshot is a copy: later increments don't retroactively change it.
	c.Resolutions.Add(10)
	if s.Resolutions != 3 {
		t.Fatal("snapshot aliased the live counters")
	}
}

func TestSelCountersNilSnapshot(t *testing.T) {
	var c *SelCounters
	if s := c.Snapshot(); s != (SelSnapshot{}) {
		t.Fatalf("nil snapshot = %+v, want zero", s)
	}
}

func TestCappedLogWrapsAndCountsDrops(t *testing.T) {
	l := NewLogCapped(4)
	if l.Cap() != 4 {
		t.Fatalf("Cap = %d", l.Cap())
	}
	now := time.Unix(0, 0)
	for i := 1; i <= 6; i++ {
		l.Addf(now, KindSpawn, ids.PID(i), "event %d", i)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (ring full)", l.Len())
	}
	if l.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", l.Dropped())
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d", len(evs))
	}
	// Oldest-first: events 3..6 survive, 1 and 2 were overwritten.
	for i, ev := range evs {
		if want := ids.PID(i + 3); ev.PID != want {
			t.Fatalf("Events[%d].PID = %v, want %v", i, ev.PID, want)
		}
	}
	// Count only sees retained events.
	if l.Count(KindSpawn) != 4 {
		t.Fatalf("Count = %d, want 4", l.Count(KindSpawn))
	}
}

func TestCappedLogBelowCapBehavesLikeUnbounded(t *testing.T) {
	l := NewLogCapped(8)
	now := time.Unix(0, 0)
	for i := 1; i <= 3; i++ {
		l.Addf(now, KindCommit, ids.PID(i), "event %d", i)
	}
	if l.Len() != 3 || l.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d", l.Len(), l.Dropped())
	}
	evs := l.Events()
	for i, ev := range evs {
		if want := ids.PID(i + 1); ev.PID != want {
			t.Fatalf("Events[%d].PID = %v, want %v", i, ev.PID, want)
		}
	}
}

func TestCappedLogReset(t *testing.T) {
	l := NewLogCapped(2)
	now := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		l.Add(now, KindSpawn, ids.PID(1), "x")
	}
	l.Reset()
	if l.Len() != 0 || l.Dropped() != 0 {
		t.Fatalf("after Reset: Len=%d Dropped=%d", l.Len(), l.Dropped())
	}
	if l.Cap() != 2 {
		t.Fatalf("Reset lost the cap: %d", l.Cap())
	}
	l.Add(now, KindSpawn, ids.PID(7), "y")
	if l.Len() != 1 || l.Events()[0].PID != ids.PID(7) {
		t.Fatal("ring unusable after Reset")
	}
}

func TestUnboundedLogHasNoCap(t *testing.T) {
	l := NewLog()
	if l.Cap() != 0 {
		t.Fatalf("NewLog Cap = %d, want 0 (unbounded)", l.Cap())
	}
	now := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		l.Add(now, KindSpawn, ids.PID(1), "x")
	}
	if l.Len() != 1000 || l.Dropped() != 0 {
		t.Fatalf("unbounded log dropped events: Len=%d Dropped=%d", l.Len(), l.Dropped())
	}
}

func TestPoolCountersSnapshot(t *testing.T) {
	var c PoolCounters
	c.JobsSubmitted.Add(3)
	c.SpecEnter()
	c.SpecEnter()
	c.SpecExit()
	c.SpecEnter()
	s := c.Snapshot()
	if s.JobsSubmitted != 3 {
		t.Fatalf("JobsSubmitted = %d", s.JobsSubmitted)
	}
	if s.SpecLive != 2 {
		t.Fatalf("SpecLive = %d, want 2", s.SpecLive)
	}
	if s.SpecHighWater != 2 {
		t.Fatalf("SpecHighWater = %d, want 2", s.SpecHighWater)
	}
	var nilC *PoolCounters
	if snap := nilC.Snapshot(); snap != (PoolSnapshot{}) {
		t.Fatal("nil PoolCounters snapshot not zero")
	}
}

func TestPoolCountersHighWaterConcurrent(t *testing.T) {
	var c PoolCounters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.SpecEnter()
				c.SpecExit()
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.SpecLive != 0 {
		t.Fatalf("SpecLive = %d, want 0", s.SpecLive)
	}
	if s.SpecHighWater < 1 || s.SpecHighWater > 8 {
		t.Fatalf("SpecHighWater = %d, want 1..8", s.SpecHighWater)
	}
}
