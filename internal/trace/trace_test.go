package trace

import (
	"sync"
	"testing"
)

func TestSelCountersSnapshot(t *testing.T) {
	var c SelCounters
	c.Resolutions.Add(3)
	c.SubscribersVisited.Add(7)
	c.Eliminations.Add(2)
	c.Contradictions.Add(5)
	c.WorldSplits.Add(6)
	c.ShardContention.Add(1)
	c.AliasWalks.Add(4)
	s := c.Snapshot()
	if s.Resolutions != 3 || s.SubscribersVisited != 7 || s.Eliminations != 2 ||
		s.Contradictions != 5 || s.WorldSplits != 6 || s.ShardContention != 1 || s.AliasWalks != 4 {
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
