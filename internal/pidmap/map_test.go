package pidmap

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"altrun/internal/ids"
)

func TestMapBasics(t *testing.T) {
	m := NewMap[int]()
	if v := m.Get(1); v != nil {
		t.Fatalf("empty map Get = %v", *v)
	}
	ten, twenty := 10, 20
	m.Set(1, &ten)
	m.Set(2, &twenty)
	if v := m.Get(1); v == nil || *v != 10 {
		t.Fatalf("Get(1) = %v", v)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete(1) || m.Delete(1) {
		t.Fatal("Delete semantics broken")
	}
	if v := m.Get(1); v != nil {
		t.Fatalf("Get(1) after delete = %v", *v)
	}
	if v := m.Get(2); v == nil || *v != 20 {
		t.Fatal("delete disturbed a sibling key")
	}
}

func TestMapGrowAndCompact(t *testing.T) {
	m := NewMap[int]()
	const n = 10_000
	vals := make([]int, n+1)
	for i := 1; i <= n; i++ {
		vals[i] = i
		m.Set(ids.PID(i), &vals[i])
	}
	for i := 1; i <= n; i++ {
		if v := m.Get(ids.PID(i)); v == nil || *v != i {
			t.Fatalf("Get(%d) = %v after growth", i, v)
		}
	}
	// Deleting most entries must trigger tombstone compaction without
	// losing the survivors.
	for i := 1; i <= n-10; i++ {
		m.Delete(ids.PID(i))
	}
	for i := n - 9; i <= n; i++ {
		if v := m.Get(ids.PID(i)); v == nil || *v != i {
			t.Fatalf("survivor Get(%d) = %v after compaction", i, v)
		}
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d after mass delete", m.Len())
	}
}

func TestMapUpdate(t *testing.T) {
	m := NewMap[[]int]()
	// RMW publish of an immutable slice — the subscriber-bucket pattern.
	m.Update(7, func(old *[]int) *[]int {
		if old != nil {
			t.Fatal("old must be nil on first update")
		}
		s := []int{1}
		return &s
	})
	m.Update(7, func(old *[]int) *[]int {
		s := append(append([]int(nil), *old...), 2)
		return &s
	})
	if v := m.Get(7); v == nil || len(*v) != 2 {
		t.Fatalf("Get(7) = %v", v)
	}
	if got := m.Update(7, func(old *[]int) *[]int { return nil }); got != nil {
		t.Fatal("nil update must delete")
	}
	if m.Len() != 0 {
		t.Fatal("entry survived nil update")
	}
}

func TestMapRange(t *testing.T) {
	m := NewMap[int]()
	vals := map[ids.PID]int{1: 10, 5: 50, 9: 90}
	for k := range vals {
		v := vals[k]
		m.Set(k, &v)
	}
	seen := map[ids.PID]int{}
	m.Range(func(pid ids.PID, v *int) bool {
		seen[pid] = *v
		return true
	})
	if len(seen) != 3 || seen[5] != 50 {
		t.Fatalf("Range saw %v", seen)
	}
}

// TestMapReadersNeverMissStableKeys hammers rebuilds while readers
// probe: a reader must never miss a key that was present for the whole
// run, whichever table — current or replaced — it is walking.
func TestMapReadersNeverMissStableKeys(t *testing.T) {
	m := NewMap[int]()
	// Anchors that are never deleted: readers assert on them.
	anchors := make([]int, 8)
	for i := range anchors {
		anchors[i] = i + 1
		m.Set(ids.PID(1000+i), &anchors[i])
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 8; i++ {
					if v := m.Get(ids.PID(1000 + i)); v == nil || *v != i+1 {
						t.Errorf("anchor %d vanished: %v", i, v)
						return
					}
				}
			}
		}()
	}
	// Writer: churn keys 1..64 to force repeated grow/compact rebuilds.
	val := 42
	for round := 0; round < 300; round++ {
		for i := 1; i <= 64; i++ {
			m.Set(ids.PID(i), &val)
		}
		for i := 1; i <= 64; i++ {
			m.Delete(ids.PID(i))
		}
	}
	close(stop)
	wg.Wait()
}

// TestMapRetainsOnlyItsCurrentTable: a map grown to 2^20 entries
// replaces its table at every doubling, and nothing may keep the
// replaced tables alive. After a GC the heap the map retains must be
// within 1.25x of its one current table (a map that caches its
// outgrown tables retains about twice that).
func TestMapRetainsOnlyItsCurrentTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMap[int]()
	val := 1 // one shared value: the tables are all the map allocates
	for i := 1; i <= n; i++ {
		m.Set(ids.PID(i), &val)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	table := uint64(len(m.table.Load().slots)) * uint64(unsafe.Sizeof(mapSlot[int]{}))
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(m)
	t.Logf("retained %.1f MB, current table %.1f MB", float64(retained)/1e6, float64(table)/1e6)
	if retained > int64(table)*5/4 {
		t.Fatalf("map of %d entries retains %d B after a GC, > 1.25 x its %d B table", n, retained, table)
	}
}

func BenchmarkMapGet(b *testing.B) {
	m := NewMap[int]()
	for i := 1; i <= 1024; i++ {
		v := i
		m.Set(ids.PID(i), &v)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if m.Get(ids.PID(i%1024+1)) == nil {
				b.Fatal("miss")
			}
		}
	})
}
