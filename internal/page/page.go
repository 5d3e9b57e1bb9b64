// Package page implements the paged, copy-on-write single-level store
// the paper builds on (§3.1, §3.3).
//
// "Sink state is manipulated as fixed-size pages. All sink state can be
// represented in this fashion ... thus we bury the entire memory
// hierarchy under the page abstraction." Each speculative alternative
// gets a page Table inherited from its parent ("page map inheritance",
// §3.3, citing TENEX); pages are shared until written, and a write to a
// shared page copies it first ("copy-on-write", Bobrow 1972). The commit
// of a winning alternative is an atomic swap of the parent's table for
// the child's (§3.2: "atomically replacing its page pointer with that of
// the child").
//
// # Layered (persistent) page tables
//
// A Table is a chain of immutable, reference-counted base layers plus a
// private mutable delta. Clone freezes the delta into a new shared
// layer and hands both tables a pointer to it, so a fork is O(1) in the
// resident size — the analogue of the hardware page-map inheritance
// that lets the paper's 3B2 fork a 320 KB space in 31 ms regardless of
// how much of it is resident. Reads walk the layer chain newest-first
// with a per-table lookup cache; writes always land in the delta,
// copying from the chain when the page is shared (counted in Copies) or
// migrating the page buffer when the whole chain is exclusively owned
// (the refcount-1 in-place fast path of the eager design). Page buffers
// are recycled through a store-wide pool, so steady-state write faults
// and sibling eliminations are allocation-free. Once an exclusively
// owned chain grows past compactDepth layers it is folded back into the
// delta, bounding walk depth for long fork→commit lineages.
//
// One accounting nuance of the layered design: a page stays "shared"
// while any other table's chain still reaches its layer, even if that
// table has since shadowed the page with a private copy. A writer in
// that window is charged a copy where the eager per-page refcount would
// have written in place. The paper's experiments never hit this case —
// a blocked parent does not write while its alternatives run (§4.1) —
// and the charge errs on the side of isolation, never against it.
//
// Concurrency contract: a Table belongs to exactly one world and is not
// safe for concurrent use. Layers (and the pages inside them) may be
// shared by many tables across goroutines; that sharing is safe because
// layers are immutable while their reference count exceeds one, a table
// mutates a layer only when it owns the entire chain exclusively, and
// reference counts are atomic.
package page

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultPageSize matches the HP 9000/350's 4 KB pages (§4.4).
const DefaultPageSize = 4096

// compactDepth is the layer-chain length beyond which Clone folds an
// exclusively owned chain back into the private delta, so chains never
// degrade lookups beyond a small constant.
const compactDepth = 8

// ErrReleased is returned when using a table after Release.
var ErrReleased = errors.New("page: table already released")

// Store is a page allocator with global copy/alloc accounting and a
// pool of recycled page buffers. It is safe for concurrent use.
type Store struct {
	pageSize    int
	allocs      atomic.Int64
	copies      atomic.Int64
	clones      atomic.Int64
	compactions atomic.Int64
	recycled    atomic.Int64
	pool        sync.Pool // *pageBuf
}

// NewStore returns a Store with the given page size; size <= 0 selects
// DefaultPageSize.
func NewStore(pageSize int) *Store {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Store{pageSize: pageSize}
}

// PageSize returns the store's page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// Allocs returns the number of fresh pages ever materialized (write
// faults on missing pages). Pool recycling does not change this count:
// it is the paper's accounting quantity, not a Go allocation count.
func (s *Store) Allocs() int64 { return s.allocs.Load() }

// Copies returns the number of COW page copies ever performed. The
// experiments use this as the "memory copying" overhead measure (§4.1
// item 1).
func (s *Store) Copies() int64 { return s.copies.Load() }

// Clones returns the number of table clones (forks) ever performed.
func (s *Store) Clones() int64 { return s.clones.Load() }

// Compactions returns the number of layer-chain folds performed.
func (s *Store) Compactions() int64 { return s.compactions.Load() }

// Recycled returns the number of page buffers served from the pool
// instead of the allocator.
func (s *Store) Recycled() int64 { return s.recycled.Load() }

// A pageBuf is a fixed-size unit of sink state. In the layered design a
// buffer lives in exactly one container (one layer's map or one table's
// delta) at a time, so container ownership — not a per-page refcount —
// governs when it returns to the pool.
type pageBuf struct {
	data []byte
}

// tombstone marks a dropped page in a delta or frozen layer: it shadows
// any occurrence deeper in the chain so the page reads as zeros.
var tombstone = &pageBuf{}

// get returns a page buffer with undefined contents (callers overwrite
// it completely).
func (s *Store) get() *pageBuf {
	if v := s.pool.Get(); v != nil {
		s.recycled.Add(1)
		return v.(*pageBuf)
	}
	return &pageBuf{data: make([]byte, s.pageSize)}
}

// getZero returns a zero-filled page buffer.
func (s *Store) getZero() *pageBuf {
	if v := s.pool.Get(); v != nil {
		s.recycled.Add(1)
		p := v.(*pageBuf)
		clear(p.data)
		return p
	}
	return &pageBuf{data: make([]byte, s.pageSize)}
}

// put returns a buffer to the pool. The caller must hold the only
// reference.
func (s *Store) put(p *pageBuf) {
	if p == tombstone || p == nil {
		return
	}
	s.pool.Put(p)
}

// A layer is one frozen generation of page mappings. Layers are
// immutable while shared; refs counts direct referents (tables using it
// as their base plus layers using it as their parent). A table that
// owns every layer of its chain exclusively (all refs == 1) may mutate
// them, since no other table can reach any of them.
type layer struct {
	parent *layer
	pages  map[int64]*pageBuf
	refs   atomic.Int32
	depth  int
}

func depthOf(l *layer) int {
	if l == nil {
		return 0
	}
	return l.depth
}

// releaseChain drops one reference from l and every ancestor whose
// reference count consequently reaches zero, returning their page
// buffers to the pool.
func (s *Store) releaseChain(l *layer) {
	for l != nil {
		n := l.refs.Add(-1)
		assertRefs(n)
		if n != 0 {
			return
		}
		for _, p := range l.pages {
			s.put(p)
		}
		l.pages = nil
		l = l.parent
	}
}

// Table is one world's page map: a shared immutable base chain plus a
// private delta. The zero value is unusable; obtain tables from
// Store.NewTable or Table.Clone.
type Table struct {
	store    *Store
	base     *layer
	delta    map[int64]*pageBuf
	cache    map[int64]*pageBuf // memoized base-chain lookups (tombstone = miss)
	copies   int64              // COW page copies performed by this table
	resident int                // distinct visible pages
	released bool
}

// NewTable returns an empty page table.
func (s *Store) NewTable() *Table {
	return &Table{store: s, delta: make(map[int64]*pageBuf)}
}

// Len returns the number of resident pages.
func (t *Table) Len() int { return t.resident }

// Depth returns the length of the table's base layer chain (0 for a
// fresh or just-compacted table). Diagnostic/test helper.
func (t *Table) Depth() int { return depthOf(t.base) }

// Copies returns the number of COW page copies this table has performed
// since creation (write faults to shared pages).
func (t *Table) Copies() int64 { return t.copies }

// lookupBase resolves page n through the base chain, memoizing the
// result (tombstone for both dropped and absent pages; layers are
// immutable to every other table, so memoized misses cannot go stale).
func (t *Table) lookupBase(n int64) *pageBuf {
	if t.base == nil {
		return nil
	}
	if p, ok := t.cache[n]; ok {
		if p == tombstone {
			return nil
		}
		return p
	}
	found := tombstone
	for l := t.base; l != nil; l = l.parent {
		if p, ok := l.pages[n]; ok {
			found = p
			break
		}
	}
	if t.cache == nil {
		t.cache = make(map[int64]*pageBuf)
	}
	t.cache[n] = found
	if found == tombstone {
		return nil
	}
	return found
}

// SharedWith returns how many of t's resident pages are also reachable
// by at least one other table through a shared layer. The experiments
// use this to verify maximal sharing (§3.3: predicates and COW
// "maximize sharing").
func (t *Table) SharedWith() int {
	if t.released {
		return 0
	}
	shared := 0
	exclusive := true
	seen := make(map[int64]bool, len(t.delta))
	for n := range t.delta {
		seen[n] = true // delta pages (and tombstones) are private
	}
	for l := t.base; l != nil; l = l.parent {
		if l.refs.Load() != 1 {
			exclusive = false
		}
		for n, p := range l.pages {
			if seen[n] {
				continue
			}
			seen[n] = true
			if p != tombstone && !exclusive {
				shared++
			}
		}
	}
	return shared
}

// Clone returns a new table mapping exactly the same pages, all shared.
// The private delta is frozen into a new base layer both tables point
// at, so cloning is O(1) in the resident size — this is the page-map
// inheritance of a COW fork; no per-page work, no data copying.
func (t *Table) Clone() (*Table, error) {
	if t.released {
		return nil, ErrReleased
	}
	t.maybeCompact()
	base := t.base
	if len(t.delta) > 0 {
		nl := &layer{parent: t.base, pages: t.delta, depth: depthOf(t.base) + 1}
		// The new layer inherits t's reference to the old base and is
		// itself referenced by t and the child.
		nl.refs.Store(2)
		t.base = nl
		t.delta = make(map[int64]*pageBuf)
		t.cache = nil
		base = nl
	} else if base != nil {
		base.refs.Add(1)
	}
	nt := &Table{
		store:    t.store,
		base:     base,
		delta:    make(map[int64]*pageBuf),
		resident: t.resident,
	}
	t.store.clones.Add(1)
	return nt, nil
}

// maybeCompact folds the base chain into the private delta when it has
// grown past compactDepth and is exclusively owned (every layer's
// refcount is 1, i.e. no other table can reach any of it). Shadowed
// buffers return to the pool; visible ones migrate without copying.
func (t *Table) maybeCompact() {
	if depthOf(t.base) < compactDepth {
		return
	}
	for l := t.base; l != nil; l = l.parent {
		if l.refs.Load() != 1 {
			return
		}
	}
	for l := t.base; l != nil; l = l.parent {
		for n, p := range l.pages {
			if _, ok := t.delta[n]; ok {
				t.store.put(p) // shadowed by a newer generation
				continue
			}
			t.delta[n] = p
		}
		l.pages = nil
		l.refs.Store(0)
	}
	// With no chain left to shadow, tombstones mean nothing.
	for n, p := range t.delta {
		if p == tombstone {
			delete(t.delta, n)
		}
	}
	t.base = nil
	t.cache = nil
	t.store.compactions.Add(1)
}

// Read returns a read-only view of page n. Missing pages read as a
// shared zero page (nil slice: callers treat nil as all-zero). The
// returned slice must not be modified, and is invalidated by Clone,
// Swap, and Release.
func (t *Table) Read(n int64) ([]byte, error) {
	if t.released {
		return nil, ErrReleased
	}
	if p, ok := t.delta[n]; ok {
		if p == tombstone {
			return nil, nil
		}
		return p.data, nil
	}
	if p := t.lookupBase(n); p != nil {
		return p.data, nil
	}
	return nil, nil
}

// Write returns a writable view of page n, allocating or copying as
// needed. A write fault on a shared page copies the page first and is
// counted in Copies; on a page whose entire chain is exclusively owned
// the buffer migrates into the delta and is written in place.
func (t *Table) Write(n int64) ([]byte, error) {
	if t.released {
		return nil, ErrReleased
	}
	if p, ok := t.delta[n]; ok {
		if p != tombstone {
			return p.data, nil
		}
		// Dropped here: the page is missing regardless of the chain.
		return t.allocAt(n), nil
	}
	exclusive := true
	var found *pageBuf
	var foundLayer *layer
	for l := t.base; l != nil; l = l.parent {
		if l.refs.Load() != 1 {
			exclusive = false
		}
		if p, ok := l.pages[n]; ok {
			found = p
			foundLayer = l
			break
		}
	}
	if found == nil || found == tombstone {
		return t.allocAt(n), nil
	}
	if exclusive {
		// Sole owner of every layer down to the page: migrate the
		// buffer and write in place — the refcount-1 fast path; no copy
		// is charged, matching the eager design after sibling release.
		delete(foundLayer.pages, n)
		delete(t.cache, n)
		t.delta[n] = found
		return found.data, nil
	}
	np := t.store.get()
	copy(np.data, found.data)
	t.delta[n] = np
	t.copies++
	t.store.copies.Add(1)
	return np.data, nil
}

// allocAt materializes a fresh zero page at n in the delta.
func (t *Table) allocAt(n int64) []byte {
	np := t.store.getZero()
	t.delta[n] = np
	t.resident++
	t.store.allocs.Add(1)
	return np.data
}

// Drop unmaps page n (it reads as zeros afterwards). The buffer returns
// to the pool if this table held it exclusively; a tombstone shadows
// any shared occurrence deeper in the chain.
func (t *Table) Drop(n int64) error {
	if t.released {
		return ErrReleased
	}
	if p, ok := t.delta[n]; ok {
		if p == tombstone {
			return nil
		}
		t.store.put(p)
		t.resident--
		if t.lookupBase(n) != nil {
			t.delta[n] = tombstone
		} else {
			delete(t.delta, n)
		}
		return nil
	}
	if t.lookupBase(n) != nil {
		t.delta[n] = tombstone
		t.resident--
	}
	return nil
}

// Release drops every mapping, returning exclusively held page buffers
// to the pool. Further use returns ErrReleased. Release is idempotent.
func (t *Table) Release() {
	if t.released {
		return
	}
	for _, p := range t.delta {
		t.store.put(p)
	}
	t.delta = nil
	t.cache = nil
	t.store.releaseChain(t.base)
	t.base = nil
	t.resident = 0
	t.released = true
}

// Swap atomically exchanges the mappings of t and other — the commit
// primitive: the parent absorbs the winning child's state by taking its
// page map (§3.2). After Swap, the child's table holds the parent's old
// map (typically Released next).
func (t *Table) Swap(other *Table) error {
	if t.released || other.released {
		return ErrReleased
	}
	if t.store != other.store {
		return fmt.Errorf("page: swap across stores (%p vs %p)", t.store, other.store)
	}
	t.base, other.base = other.base, t.base
	t.delta, other.delta = other.delta, t.delta
	t.cache, other.cache = other.cache, t.cache
	t.copies, other.copies = other.copies, t.copies
	t.resident, other.resident = other.resident, t.resident
	return nil
}

// resolve returns the buffer backing page n, or nil if absent/dropped.
func (t *Table) resolve(n int64) *pageBuf {
	if t.released {
		return nil
	}
	if p, ok := t.delta[n]; ok {
		if p == tombstone {
			return nil
		}
		return p
	}
	return t.lookupBase(n)
}

// SamePage reports whether t and other map the same physical page at n
// (i.e., the page is still shared, not copied). Test helper for COW
// invariants.
func (t *Table) SamePage(other *Table, n int64) bool {
	a := t.resolve(n)
	return a != nil && a == other.resolve(n)
}
