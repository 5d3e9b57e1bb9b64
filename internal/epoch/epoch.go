// Package epoch implements epoch-based reclamation (EBR) for the
// lock-free read paths of the commit pipeline: the world registry, the
// process table, and the message router all publish immutable snapshots
// (hash tables, subscriber slices) behind atomic pointers, and readers
// traverse them without taking any lock. Go's garbage collector already
// rules out use-after-free, so what EBR buys here is *reuse*: retired
// tables and buckets go back into free lists instead of churning the
// GC, but only after every reader that could still hold a reference has
// moved on — exactly the guarantee a grace period provides.
//
// The scheme is the classic three-epoch design (Fraser 2004; the same
// shape as Linux RCU's grace periods):
//
//   - a global epoch counter advances only when every pinned reader has
//     been observed in the current epoch;
//   - readers Pin before traversing shared state and Unpin after; a
//     pinned reader parks its handle at the epoch it entered under;
//   - writers Retire an object with the epoch at which it was unlinked;
//     once the global epoch has advanced twice past that point, no
//     pinned reader can still see the object and its recycle callback
//     runs.
//
// Handles live in a grow-only registration list so Advance can scan
// them, and are cached per-P through a sync.Pool of small ref objects.
// A handle is claimed only while pinned: Unpin releases it before the
// ref goes back to the pool, so a ref the pool drops (on a GC cycle, or
// at random under the race detector) holds nothing, and the list stays
// bounded by the historical maximum of concurrent pins.
package epoch

import (
	"sync"
	"sync/atomic"
)

// collectThreshold is the retire-list length at which Retire attempts
// an advance-and-collect cycle. Small enough that free lists turn over
// quickly, large enough that the handle scan amortizes.
const collectThreshold = 64

// handle is one reader's epoch slot. A handle is pinned when epoch != 0
// and quiescent otherwise; claimed is held from Pin to Unpin, so one
// handle serves one reader at a time. The pad keeps concurrently-pinning
// readers off each other's cache lines.
type handle struct {
	epoch   atomic.Uint64
	claimed atomic.Uint32
	next    *handle
	_       [40]byte
}

// ref is the pooled per-P cache of the handle its last reader used;
// the next Pin on that P reclaims it unless another reader has taken it
// in the meantime.
type ref struct {
	h *handle
}

// retiree is one deferred reclamation: recycle runs once the global
// epoch has advanced two steps past the epoch the object was retired
// in.
type retiree struct {
	epoch   uint64
	recycle func()
}

// Domain is one reclamation scope. The zero value is not usable; call
// NewDomain. All methods are safe for concurrent use.
type Domain struct {
	// global is the current epoch. Epochs start at 1 so a handle's 0
	// can mean "quiescent".
	global atomic.Uint64

	// handles is the grow-only registration list Advance scans.
	handles atomic.Pointer[handle]

	refs sync.Pool // *ref

	retMu   sync.Mutex
	retired []retiree

	// pending mirrors len(retired) so Retire can decide whether to
	// collect without taking retMu twice.
	pending atomic.Int64
}

// NewDomain returns a fresh reclamation domain.
func NewDomain() *Domain {
	d := &Domain{}
	d.global.Store(1)
	d.refs.New = func() any { return new(ref) }
	return d
}

// claimHandle finds a quiescent, unclaimed handle in the registration
// list or registers a new one. Pin calls it only when its ref's cached
// handle is missing or taken, so it is off the hot path.
func (d *Domain) claimHandle() *handle {
	for h := d.handles.Load(); h != nil; h = h.next {
		if h.claimed.Load() == 0 && h.claimed.CompareAndSwap(0, 1) {
			return h
		}
	}
	h := &handle{}
	h.claimed.Store(1)
	for {
		head := d.handles.Load()
		h.next = head
		if d.handles.CompareAndSwap(head, h) {
			return h
		}
	}
}

// Guard is an active pin. It must be released with Unpin on the same
// goroutine that created it, and must not be copied.
type Guard struct {
	d *Domain
	r *ref
}

// Pin enters a read-side critical section: objects reachable from
// shared state at any point while pinned will not be recycled until
// after Unpin. Pins are cheap (a pool hit, a CAS and two atomic stores)
// and may nest — each Pin claims its own handle.
func (d *Domain) Pin() Guard {
	r := d.refs.Get().(*ref)
	if r.h == nil || !r.h.claimed.CompareAndSwap(0, 1) {
		r.h = d.claimHandle()
	}
	h := r.h
	// Store-then-recheck: if the global epoch moved between the load
	// and the store, the store may have parked the handle at a stale
	// epoch that Advance already stopped caring about; retry until the
	// parked epoch is the current one. (Go's sync/atomic operations
	// are sequentially consistent, which this handshake relies on.)
	for {
		e := d.global.Load()
		h.epoch.Store(e)
		if d.global.Load() == e {
			break
		}
	}
	return Guard{d: d, r: r}
}

// Unpin leaves the read-side critical section and releases the handle
// before the ref goes back to the pool, which may drop it.
func (g Guard) Unpin() {
	g.r.h.epoch.Store(0)
	g.r.h.claimed.Store(0)
	g.d.refs.Put(g.r)
}

// Retire schedules recycle to run once no pinned reader can still hold
// a reference to the object unlinked by the caller. The caller must
// have already made the object unreachable from shared state (typically
// by swapping an atomic pointer); recycle runs on whatever goroutine
// triggers the collection, so it must be fast and must not retire
// further objects recursively into the same domain while holding locks
// the reader side needs.
func (d *Domain) Retire(recycle func()) {
	d.retMu.Lock()
	d.retired = append(d.retired, retiree{epoch: d.global.Load(), recycle: recycle})
	n := len(d.retired)
	d.retMu.Unlock()
	d.pending.Store(int64(n))
	if n >= collectThreshold {
		d.Advance()
	}
}

// Pending returns the number of retired objects awaiting their grace
// period (diagnostic/test hook).
func (d *Domain) Pending() int {
	return int(d.pending.Load())
}

// Advance attempts to move the global epoch forward and runs the
// recycle callbacks of every retiree whose grace period has elapsed
// (retired two or more epochs before the current one). The epoch can
// only advance when every pinned handle has been observed in the
// current epoch; a long-running pinned reader therefore stalls
// reclamation, never correctness.
func (d *Domain) Advance() {
	e := d.global.Load()
	canAdvance := true
	for h := d.handles.Load(); h != nil; h = h.next {
		if pe := h.epoch.Load(); pe != 0 && pe != e {
			canAdvance = false
			break
		}
	}
	if canAdvance {
		// A failed CAS means another Advance won; its collection pass
		// covers our retirees.
		d.global.CompareAndSwap(e, e+1)
	}
	d.collect()
}

// collect runs the recycle callbacks of retirees whose epoch is at
// least two behind the current global epoch.
func (d *Domain) collect() {
	now := d.global.Load()
	var ready []retiree
	d.retMu.Lock()
	kept := d.retired[:0]
	for _, r := range d.retired {
		if r.epoch+2 <= now {
			ready = append(ready, r)
		} else {
			kept = append(kept, r)
		}
	}
	d.retired = kept
	d.pending.Store(int64(len(kept)))
	d.retMu.Unlock()
	for _, r := range ready {
		r.recycle()
	}
}

// Drain advances until every pending retiree has been recycled —
// a shutdown/test helper. It must not be called while a pin is held on
// the calling goroutine (the epoch could never advance past it).
func (d *Domain) Drain() {
	for d.Pending() > 0 {
		d.Advance()
	}
}
