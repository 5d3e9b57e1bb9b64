// Package pidmap is the lock-free-read PID map under the commit path:
// the world registry's shards and the process table look up every PID
// that selection — commit, sibling elimination, predicate resolution —
// touches through it.
package pidmap

import (
	"sync"
	"sync/atomic"

	"altrun/internal/ids"
)

// Map is a lock-free-read hash map from PID to *V. Readers — Get,
// Range — are atomic loads and nothing else: they never block, never
// take a lock, and never observe a torn table. Writers — Set, Update,
// Delete — serialize on an internal mutex, publish entries with atomic
// stores, and swap in a freshly allocated table when occupancy or
// tombstone thresholds are crossed. A replaced table is never written
// again and is left to the garbage collector, which frees it once the
// last reader still probing it has moved on; a rebuild comes only after
// at least cap/4 inserts or deletes, so its fresh table costs a bounded
// number of bytes per write.
//
// Consistency: a Get that races a Set/Delete may return the old view,
// as if the lookup had run just before the write.
type Map[V any] struct {
	table atomic.Pointer[mapTable[V]]

	mu    sync.Mutex // serializes writers
	live  int        // entries with a value (writer-owned)
	tombs int        // tombstoned slots in the current table (writer-owned)
	count atomic.Int64
}

// mapTable is one immutable-capacity open-addressed table. Slots are
// published with atomic stores: value first, then key, so a reader that
// matches a key always finds the value.
type mapTable[V any] struct {
	mask  uint64
	slots []mapSlot[V]
}

// mapSlot key states: 0 empty (ends probe chains), tombstoneKey
// deleted (keeps probe chains alive), else a live PID.
type mapSlot[V any] struct {
	key atomic.Int64
	val atomic.Pointer[V]
}

const (
	tombstoneKey = -1
	// minMapCap is the smallest table; must be a power of two.
	minMapCap = 16
)

// NewMap returns an empty map.
func NewMap[V any]() *Map[V] {
	m := &Map[V]{}
	m.table.Store(newMapTable[V](minMapCap))
	return m
}

func newMapTable[V any](capacity int) *mapTable[V] {
	return &mapTable[V]{mask: uint64(capacity - 1), slots: make([]mapSlot[V], capacity)}
}

// hashPID mixes the PID's bits (splitmix64 finalizer) so dense
// sequential PIDs spread over the table.
func hashPID(pid ids.PID) uint64 {
	x := uint64(pid)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Get returns the value for pid, or nil. Lock-free: one table load and
// a linear probe of atomic key loads.
func (m *Map[V]) Get(pid ids.PID) *V {
	t := m.table.Load()
	h := hashPID(pid)
	for i := uint64(0); ; i++ {
		s := &t.slots[(h+i)&t.mask]
		k := s.key.Load()
		if k == 0 {
			return nil
		}
		if k == int64(pid) {
			return s.val.Load()
		}
	}
}

// Set maps pid to v (non-nil).
func (m *Map[V]) Set(pid ids.PID, v *V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.set(pid, v)
}

// Update atomically (with respect to other writers) replaces pid's
// value with fn(old); old is nil when absent. A nil result deletes the
// entry. It returns the stored result. Readers see either the old or
// the new value, never an intermediate.
func (m *Map[V]) Update(pid ids.PID, fn func(old *V) *V) *V {
	m.mu.Lock()
	defer m.mu.Unlock()
	var old *V
	if s := m.lookupSlot(pid); s != nil {
		old = s.val.Load()
	}
	next := fn(old)
	if next == nil {
		m.delete(pid)
	} else {
		m.set(pid, next)
	}
	return next
}

// Delete removes pid's entry, reporting whether it was present.
func (m *Map[V]) Delete(pid ids.PID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delete(pid)
}

// Len returns the number of live entries.
func (m *Map[V]) Len() int { return int(m.count.Load()) }

// Range calls fn for every entry of one consistent table snapshot,
// stopping early if fn returns false. Entries mutated mid-range may or
// may not be reflected.
func (m *Map[V]) Range(fn func(pid ids.PID, v *V) bool) {
	t := m.table.Load()
	for i := range t.slots {
		s := &t.slots[i]
		k := s.key.Load()
		if k <= 0 {
			continue
		}
		v := s.val.Load()
		if v == nil {
			continue
		}
		if !fn(ids.PID(k), v) {
			return
		}
	}
}

// lookupSlot finds pid's live slot in the current table (writer-side;
// m.mu held).
func (m *Map[V]) lookupSlot(pid ids.PID) *mapSlot[V] {
	t := m.table.Load()
	h := hashPID(pid)
	for i := uint64(0); ; i++ {
		s := &t.slots[(h+i)&t.mask]
		k := s.key.Load()
		if k == 0 {
			return nil
		}
		if k == int64(pid) {
			return s
		}
	}
}

// set inserts or overwrites pid→v. m.mu held.
func (m *Map[V]) set(pid ids.PID, v *V) {
	if pid <= 0 {
		panic("pidmap: Map keys must be positive PIDs")
	}
	if v == nil {
		panic("pidmap: Map values must be non-nil (use Delete)")
	}
	t := m.table.Load()
	// Rebuild when the next insert could push occupied (live+tombstone)
	// slots past 3/4 capacity — the bound that keeps probe chains short
	// and guarantees an empty slot terminates every reader's probe.
	if (m.live+m.tombs+1)*4 > len(t.slots)*3 {
		t = m.rebuild(t)
	}
	h := hashPID(pid)
	var grave *mapSlot[V]
	for i := uint64(0); ; i++ {
		s := &t.slots[(h+i)&t.mask]
		switch k := s.key.Load(); k {
		case int64(pid):
			s.val.Store(v)
			return
		case tombstoneKey:
			if grave == nil {
				grave = s
			}
		case 0:
			if grave != nil {
				// Reuse the first tombstone on the probe path. Readers
				// mid-probe may have already passed it and will miss
				// the entry this once — indistinguishable from the
				// lookup having run before the insert.
				s = grave
				m.tombs--
			}
			// Publish value before key: a reader that matches the key
			// must find the value.
			s.val.Store(v)
			s.key.Store(int64(pid))
			m.live++
			m.count.Store(int64(m.live))
			return
		}
	}
}

// delete tombstones pid's slot. m.mu held.
func (m *Map[V]) delete(pid ids.PID) bool {
	s := m.lookupSlot(pid)
	if s == nil {
		return false
	}
	// Clear the value first so a reader that still matches the key gets
	// nil (absent), then tombstone the key to keep probe chains intact.
	s.val.Store(nil)
	s.key.Store(tombstoneKey)
	m.live--
	m.tombs++
	m.count.Store(int64(m.live))
	t := m.table.Load()
	// Compact when tombstones dominate: churn (register/unregister at
	// block rate) otherwise fills every chain with graves.
	if m.tombs*4 > len(t.slots) && m.tombs > m.live {
		m.rebuild(t)
	}
	return true
}

// rebuild swaps in a fresh table sized for the live population, copying
// live entries and dropping tombstones. m.mu held; readers continue on
// the old table until they next load the pointer, and the GC frees it
// after the last of them.
func (m *Map[V]) rebuild(old *mapTable[V]) *mapTable[V] {
	capacity := minMapCap
	for capacity*2 < (m.live+1)*4 { // live ≤ cap/2 after rebuild
		capacity *= 2
	}
	t := newMapTable[V](capacity)
	for i := range old.slots {
		s := &old.slots[i]
		k := s.key.Load()
		if k <= 0 {
			continue
		}
		v := s.val.Load()
		if v == nil {
			continue
		}
		// Private table: plain insertion order, still via atomics for
		// the race detector's benefit (readers arrive after the swap).
		h := hashPID(ids.PID(k))
		for j := uint64(0); ; j++ {
			d := &t.slots[(h+j)&t.mask]
			if d.key.Load() == 0 {
				d.val.Store(v)
				d.key.Store(k)
				break
			}
		}
	}
	m.tombs = 0
	m.table.Store(t)
	return t
}
