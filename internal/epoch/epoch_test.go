package epoch

import (
	"sync"
	"sync/atomic"
	"testing"

	"altrun/internal/ids"
)

func TestPinBlocksReclamation(t *testing.T) {
	d := NewDomain()
	g := d.Pin()
	recycled := false
	d.Retire(func() { recycled = true })
	for i := 0; i < 10; i++ {
		d.Advance()
	}
	if recycled {
		t.Fatal("retiree recycled while a reader was pinned")
	}
	g.Unpin()
	d.Drain()
	if !recycled {
		t.Fatal("retiree never recycled after unpin")
	}
}

func TestGracePeriodIsTwoEpochs(t *testing.T) {
	d := NewDomain()
	recycled := false
	e0 := d.global.Load()
	d.Retire(func() { recycled = true })
	d.Advance() // e0 -> e0+1
	if recycled {
		t.Fatal("recycled after one epoch — grace period too short")
	}
	d.Advance() // e0+1 -> e0+2: grace period over
	if !recycled {
		t.Fatalf("not recycled at epoch %d (retired at %d)", d.global.Load(), e0)
	}
}

func TestStalePinDoesNotStallForever(t *testing.T) {
	// A reader pinned at an old epoch blocks advancement only while
	// pinned; once it unpins, pending retirees drain.
	d := NewDomain()
	g := d.Pin()
	var n atomic.Int32
	for i := 0; i < 5; i++ {
		d.Retire(func() { n.Add(1) })
	}
	d.Advance()
	d.Advance()
	if n.Load() == 5 {
		t.Fatal("all retirees recycled while reader pinned")
	}
	g.Unpin()
	d.Drain()
	if n.Load() != 5 {
		t.Fatalf("recycled %d of 5 after drain", n.Load())
	}
}

// TestDroppedRefsLeakNoHandles: the ref pool may drop any ref it holds
// (on a GC cycle, and a quarter of all Puts under the race detector).
// A dropped ref must not keep its handle claimed, or every later Pin
// registers a new handle and claimHandle's scan grows with the number
// of pins between two GCs.
func TestDroppedRefsLeakNoHandles(t *testing.T) {
	d := NewDomain()
	for i := 0; i < 1000; i++ {
		g := d.Pin()
		g.Unpin()
		d.refs.Get() // drop the ref, as the pool may
	}
	n := 0
	for h := d.handles.Load(); h != nil; h = h.next {
		n++
	}
	if n > 1 {
		t.Fatalf("one reader at a time registered %d handles", n)
	}
}

func TestPinUnpinConcurrent(t *testing.T) {
	d := NewDomain()
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	var recycles atomic.Int64
	for i := 0; i < 8; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := d.Pin()
				g.Unpin()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < 200; j++ {
				d.Retire(func() { recycles.Add(1) })
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	d.Drain()
	if got := recycles.Load(); got != 800 {
		t.Fatalf("recycled %d of 800 retirees", got)
	}
}

func TestMapBasics(t *testing.T) {
	d := NewDomain()
	m := NewMap[int](d)
	g := d.Pin()
	defer g.Unpin()
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
	d := NewDomain()
	m := NewMap[int](d)
	const n = 10_000
	vals := make([]int, n+1)
	for i := 1; i <= n; i++ {
		vals[i] = i
		m.Set(ids.PID(i), &vals[i])
	}
	g := d.Pin()
	for i := 1; i <= n; i++ {
		if v := m.Get(ids.PID(i)); v == nil || *v != i {
			t.Fatalf("Get(%d) = %v after growth", i, v)
		}
	}
	g.Unpin()
	// Deleting most entries must trigger tombstone compaction without
	// losing the survivors.
	for i := 1; i <= n-10; i++ {
		m.Delete(ids.PID(i))
	}
	g = d.Pin()
	defer g.Unpin()
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
	d := NewDomain()
	m := NewMap[[]int](d)
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
	g := d.Pin()
	if v := m.Get(7); v == nil || len(*v) != 2 {
		t.Fatalf("Get(7) = %v", v)
	}
	g.Unpin()
	if got := m.Update(7, func(old *[]int) *[]int { return nil }); got != nil {
		t.Fatal("nil update must delete")
	}
	if m.Len() != 0 {
		t.Fatal("entry survived nil update")
	}
}

func TestMapRange(t *testing.T) {
	d := NewDomain()
	m := NewMap[int](d)
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

// TestMapNoPrematureReuse hammers rebuilds while pinned readers probe:
// under -race this catches a recycler zeroing a table a reader still
// walks, and in any mode a reader must never miss a key that was
// present for the whole run.
func TestMapNoPrematureReuse(t *testing.T) {
	d := NewDomain()
	m := NewMap[int](d)
	// Pinned anchors that are never deleted: readers assert on them.
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
				g := d.Pin()
				for i := 0; i < 8; i++ {
					if v := m.Get(ids.PID(1000 + i)); v == nil || *v != i+1 {
						t.Errorf("anchor %d vanished: %v", i, v)
						g.Unpin()
						return
					}
				}
				g.Unpin()
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
	d.Drain()
}

func BenchmarkMapGet(b *testing.B) {
	d := NewDomain()
	m := NewMap[int](d)
	for i := 1; i <= 1024; i++ {
		v := i
		m.Set(ids.PID(i), &v)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			g := d.Pin()
			i++
			if m.Get(ids.PID(i%1024+1)) == nil {
				b.Fatal("miss")
			}
			g.Unpin()
		}
	})
}

func BenchmarkPinUnpin(b *testing.B) {
	d := NewDomain()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g := d.Pin()
			g.Unpin()
		}
	})
}
