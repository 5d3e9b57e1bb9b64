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
// private mutable delta. Every layer, the delta included, is a slot
// array indexed by page number, like the MMU page tables the paper
// relies on: a non-nil slot holds the page, a nil slot means the page
// is not in that layer. Clone freezes the delta into a new shared
// layer by handing its array over, and gives both tables a pointer to
// it, so a fork is O(1) in the resident size — the analogue of the
// hardware page-map inheritance that lets the paper's 3B2 fork a 320 KB
// space in 31 ms regardless of how much of it is resident. A read tries
// the delta and then each layer newest-first, one indexed load per
// array and no allocation; there is no lookup cache. Writes always land
// in the delta, copying from the chain when the page is shared (counted
// in Copies) or migrating the page buffer when every layer down to the
// page's is exclusively owned (the refcount-1 in-place fast path of the
// eager design). Page buffers and slot arrays are
// recycled through store-wide pools, so steady-state write faults,
// forks and sibling eliminations are allocation-free. Once the
// exclusively owned top of a chain is compactDepth layers deep, Clone
// folds it back into the delta and stops at the first layer another
// table still shares, so a read walks at most compactDepth + 1 arrays
// above the newest layer any other table pins.
//
// Page numbers index arrays: a table is as wide as the highest page it
// maps, and callers bound page numbers (internal/mem checks every
// access against its fixed size before it reaches the table).
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
// mutates a layer only when it owns that layer and every layer above it
// exclusively, and reference counts are atomic.
package page

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// DefaultPageSize matches the HP 9000/350's 4 KB pages (§4.4).
const DefaultPageSize = 4096

// compactDepth is the number of exclusively owned layers at the top of
// a chain at which Clone folds them back into the private delta, so
// chains never degrade lookups beyond a small constant.
const compactDepth = 8

// ErrReleased is returned when using a table after Release.
var ErrReleased = errors.New("page: table already released")

// Store is a page allocator with global copy/alloc accounting, a pool
// of recycled page buffers and pools of recycled slot arrays. It is
// safe for concurrent use.
type Store struct {
	pageSize    int
	allocs      atomic.Int64
	copies      atomic.Int64
	clones      atomic.Int64
	compactions atomic.Int64
	recycled    atomic.Int64
	pool        sync.Pool // *pageBuf

	// layers pools empty layers by the log2 of their slot array's
	// length (always a power of two).
	layers [64]sync.Pool // *layer
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
// buffer lives in exactly one container (one layer's slot or one
// table's delta slot) at a time, so container ownership — not a
// per-page refcount — governs when it returns to the pool.
type pageBuf struct {
	data []byte
}

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
	if p != nil {
		s.pool.Put(p)
	}
}

// A layer is one generation of page mappings: a slot array indexed by
// page number. A table's delta is a private, unfrozen layer; Clone
// freezes it. Frozen layers are immutable while shared; refs counts
// direct referents (tables using it as their base plus layers using it
// as their parent). A table may mutate a layer when that layer and
// every layer above it in the table's chain have refs == 1, since no
// other table can then reach it.
type layer struct {
	parent *layer
	pages  []*pageBuf // nil = not in this layer
	refs   atomic.Int32
	depth  int
}

func depthOf(l *layer) int {
	if l == nil {
		return 0
	}
	return l.depth
}

// widthOf returns the length of the longest slot array in the chain
// ending at l. No layer is shorter than the one it was frozen on (a
// delta is grown to its chain's width), so that is l's own length.
func widthOf(l *layer) int {
	if l == nil {
		return 0
	}
	return len(l.pages)
}

// slot returns l's entry for page n: nil when l is nil, n is outside
// its array, or the page is not in this layer.
func (l *layer) slot(n int64) *pageBuf {
	if l == nil || uint64(n) >= uint64(len(l.pages)) {
		return nil
	}
	return l.pages[n]
}

// getLayer returns an empty, unfrozen layer whose slot array holds at
// least n >= 1 slots, rounded up to a power of two.
func (s *Store) getLayer(n int) *layer {
	class := bits.Len(uint(n - 1))
	if v := s.layers[class].Get(); v != nil {
		return v.(*layer)
	}
	return &layer{pages: make([]*pageBuf, 1<<class)}
}

// putLayer clears l and returns it to its pool. The caller must hold
// the only reference and must already have disposed of the page
// buffers in it. Clearing the array means a stale page pointer can
// never reach the next table that gets it.
func (s *Store) putLayer(l *layer) {
	clear(l.pages)
	l.parent, l.depth = nil, 0
	l.refs.Store(0)
	s.layers[bits.Len(uint(len(l.pages)-1))].Put(l)
}

// releaseChain drops one reference from l and every ancestor whose
// reference count consequently reaches zero, returning their page
// buffers and slot arrays to the pools.
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
		parent := l.parent
		s.putLayer(l)
		l = parent
	}
}

// Table is one world's page map: a shared immutable base chain plus a
// private delta. The zero value is unusable; obtain tables from
// Store.NewTable or Table.Clone.
type Table struct {
	store    *Store
	base     *layer
	delta    *layer // private and unfrozen; nil until the first write
	copies   int64  // COW page copies performed by this table
	resident int    // distinct visible pages
	released bool
}

// NewTable returns an empty page table.
func (s *Store) NewTable() *Table {
	return &Table{store: s}
}

// Len returns the number of resident pages.
func (t *Table) Len() int { return t.resident }

// Copies returns the number of COW page copies this table has performed
// since creation (write faults to shared pages).
func (t *Table) Copies() int64 { return t.copies }

// resolve returns the buffer backing page n: the delta's, else the
// newest layer's that holds it; nil if no layer does (or the table is
// released: it then has neither delta nor base).
func (t *Table) resolve(n int64) *pageBuf {
	if p := t.delta.slot(n); p != nil {
		return p
	}
	for l := t.base; l != nil; l = l.parent {
		if p := l.slot(n); p != nil {
			return p
		}
	}
	return nil
}

// set stores p in the delta's slot n, growing the delta first if it
// does not reach n.
func (t *Table) set(n int64, p *pageBuf) {
	d := t.delta
	if d == nil || n >= int64(len(d.pages)) {
		d = t.growDelta(int(n) + 1)
	}
	d.pages[n] = p
}

// growDelta replaces the delta with one of at least n slots and at
// least the chain's width, so a fresh child's delta is allocated once
// and then written within its capacity; a delta that outgrows the chain
// (a root being filled page by page) doubles.
func (t *Table) growDelta(n int) *layer {
	d := t.store.getLayer(max(n, widthOf(t.base)))
	if old := t.delta; old != nil {
		copy(d.pages, old.pages)
		t.store.putLayer(old)
	}
	t.delta = d
	return d
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
	if d := t.delta; d != nil {
		// The delta becomes the new base layer. It inherits t's
		// reference to the old base and is itself referenced by t and
		// the child.
		d.parent, d.depth = t.base, depthOf(t.base)+1
		d.refs.Store(2)
		t.base, t.delta = d, nil
	} else if t.base != nil {
		t.base.refs.Add(1)
	}
	nt := &Table{
		store:    t.store,
		base:     t.base,
		resident: t.resident,
	}
	t.store.clones.Add(1)
	return nt, nil
}

// maybeCompact folds the exclusively owned top of the base chain into
// the private delta once it is compactDepth layers deep. The top ends at
// the first layer with another referent (refs > 1): that layer and
// everything below it stay, shadowed by the delta where the top held a
// newer page. Counting only the exclusive top keeps the batching (one
// fold every compactDepth clones) while a straggling table pins an old
// layer, instead of letting the chain above it grow one layer per
// clone. Shadowed buffers return to the pool; visible ones migrate
// without copying.
//
// A refcount of 1 seen here cannot rise again — t holds the only
// reference and t is single-owner — but one above 1 can fall at any
// time as other tables release, so the walk reads each count once and
// folds exactly the layers it saw exclusive.
func (t *Table) maybeCompact() {
	if depthOf(t.base) < compactDepth {
		return
	}
	keep := t.base
	for keep != nil && keep.refs.Load() == 1 {
		keep = keep.parent
	}
	if depthOf(t.base)-depthOf(keep) < compactDepth {
		return
	}
	d := t.delta
	if d == nil || len(d.pages) < widthOf(t.base) {
		d = t.growDelta(widthOf(t.base))
	}
	for l := t.base; l != keep; {
		for n, p := range l.pages {
			if p == nil {
				continue
			}
			if d.pages[n] != nil {
				t.store.put(p) // shadowed by a newer generation
				continue
			}
			d.pages[n] = p
		}
		parent := l.parent
		t.store.putLayer(l)
		l = parent
	}
	t.base = keep
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
	if p := t.resolve(n); p != nil {
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
	if n < 0 {
		return nil, fmt.Errorf("page: negative page number %d", n)
	}
	if p := t.delta.slot(n); p != nil {
		return p.data, nil
	}
	exclusive := true
	var found *pageBuf
	var foundLayer *layer
	for l := t.base; l != nil; l = l.parent {
		if l.refs.Load() != 1 {
			exclusive = false
		}
		if p := l.slot(n); p != nil {
			found, foundLayer = p, l
			break
		}
	}
	if found == nil {
		return t.allocAt(n), nil
	}
	if exclusive {
		// Sole owner of every layer down to the page: migrate the
		// buffer and write in place — the refcount-1 fast path; no copy
		// is charged, matching the eager design after sibling release.
		foundLayer.pages[n] = nil
		t.set(n, found)
		return found.data, nil
	}
	np := t.store.get()
	copy(np.data, found.data)
	t.set(n, np)
	t.copies++
	t.store.copies.Add(1)
	return np.data, nil
}

// allocAt materializes a fresh zero page at n in the delta.
func (t *Table) allocAt(n int64) []byte {
	np := t.store.getZero()
	t.set(n, np)
	t.resident++
	t.store.allocs.Add(1)
	return np.data
}

// Release drops every mapping, returning exclusively held page buffers
// and slot arrays to the pools. Further use returns ErrReleased.
// Release is idempotent.
func (t *Table) Release() {
	if t.released {
		return
	}
	if d := t.delta; d != nil {
		for _, p := range d.pages {
			t.store.put(p)
		}
		t.store.putLayer(d)
		t.delta = nil
	}
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
	t.copies, other.copies = other.copies, t.copies
	t.resident, other.resident = other.resident, t.resident
	return nil
}
