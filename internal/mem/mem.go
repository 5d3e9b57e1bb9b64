// Package mem provides byte-addressable address spaces on top of the
// copy-on-write page store (internal/page).
//
// An AddressSpace is the unit of state a process "is often associated
// with" (§3.1). Alternatives inherit the parent's space with Fork (page
// map inheritance, no data copied); the winner's state is absorbed with
// Adopt (the atomic page-pointer swap of §3.2). The page table is the
// space's only record: ReadAt and WriteAt go to the table for every
// page they touch, and what a space has written is what its table's
// delta and layers hold.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"

	"altrun/internal/page"
)

// ErrOutOfRange is returned for accesses beyond the space's size.
var ErrOutOfRange = errors.New("mem: access out of range")

// AddressSpace is a fixed-size, zero-initialized, byte-addressable
// memory backed by COW pages. It is not safe for concurrent use; each
// speculative world owns exactly one.
type AddressSpace struct {
	store *page.Store
	table *page.Table
	size  int64
}

// New returns a zero-filled address space of the given size.
func New(store *page.Store, size int64) *AddressSpace {
	return &AddressSpace{store: store, table: store.NewTable(), size: size}
}

// Size returns the space's size in bytes.
func (a *AddressSpace) Size() int64 { return a.size }

// PageSize returns the underlying page size.
func (a *AddressSpace) PageSize() int { return a.store.PageSize() }

// Pages returns the total number of pages the space spans.
func (a *AddressSpace) Pages() int {
	ps := int64(a.store.PageSize())
	return int((a.size + ps - 1) / ps)
}

// ResidentPages returns the number of pages actually mapped (touched by
// a write at some point in the space's ancestry).
func (a *AddressSpace) ResidentPages() int { return a.table.Len() }

// CopiedPages returns the number of COW copies this space's table has
// performed (write faults on shared pages).
func (a *AddressSpace) CopiedPages() int64 { return a.table.Copies() }

func (a *AddressSpace) check(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > a.size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+int64(n), a.size)
	}
	return nil
}

// ReadAt fills buf from the space starting at off. Unwritten memory
// reads as zeros.
func (a *AddressSpace) ReadAt(buf []byte, off int64) error {
	if err := a.check(off, len(buf)); err != nil {
		return err
	}
	ps := int64(a.store.PageSize())
	for len(buf) > 0 {
		pn := off / ps
		po := off % ps
		n := ps - po
		if int64(len(buf)) < n {
			n = int64(len(buf))
		}
		pg, err := a.table.Read(pn)
		if err != nil {
			return err
		}
		if pg == nil {
			clear(buf[:n])
		} else {
			copy(buf[:n], pg[po:po+n])
		}
		buf = buf[n:]
		off += n
	}
	return nil
}

// WriteAt copies buf into the space starting at off, faulting pages as
// needed (allocate or COW copy).
func (a *AddressSpace) WriteAt(buf []byte, off int64) error {
	if err := a.check(off, len(buf)); err != nil {
		return err
	}
	ps := int64(a.store.PageSize())
	for len(buf) > 0 {
		pn := off / ps
		po := off % ps
		n := ps - po
		if int64(len(buf)) < n {
			n = int64(len(buf))
		}
		pg, err := a.table.Write(pn)
		if err != nil {
			return err
		}
		copy(pg[po:po+n], buf[:n])
		buf = buf[n:]
		off += n
	}
	return nil
}

// ReadUint64 reads a big-endian uint64 at off.
func (a *AddressSpace) ReadUint64(off int64) (uint64, error) {
	var b [8]byte
	if err := a.ReadAt(b[:], off); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

// WriteUint64 writes a big-endian uint64 at off.
func (a *AddressSpace) WriteUint64(off int64, v uint64) error {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return a.WriteAt(b[:], off)
}

// Fork returns a child space sharing every page copy-on-write — the
// paper's alt_spawn memory semantics, O(1) in the resident size.
func (a *AddressSpace) Fork() (*AddressSpace, error) {
	nt, err := a.table.Clone()
	if err != nil {
		return nil, err
	}
	return &AddressSpace{store: a.store, table: nt, size: a.size}, nil
}

// FullCopy returns a child with every resident page physically copied
// (no sharing). Recovery blocks use this mode so that loss of the
// parent's storage cannot add a new failure mode (§5.1.2: "we may copy
// all of the state rather than copying as necessary").
func (a *AddressSpace) FullCopy() (*AddressSpace, error) {
	child := New(a.store, a.size)
	buf := make([]byte, a.store.PageSize())
	ps := int64(a.store.PageSize())
	for pn := int64(0); pn < int64(a.Pages()); pn++ {
		pg, err := a.table.Read(pn)
		if err != nil {
			return nil, err
		}
		if pg == nil {
			continue
		}
		copy(buf, pg)
		end := ps
		if (pn+1)*ps > a.size {
			end = a.size - pn*ps
		}
		if err := child.WriteAt(buf[:end], pn*ps); err != nil {
			return nil, err
		}
	}
	return child, nil
}

// Adopt atomically takes over the child's page map — the commit step:
// "the parent process absorbs the state changes made by its child by
// atomically replacing its page pointer with that of the child" (§3.2).
// The child's table is released afterwards; the child space must not be
// used again.
func (a *AddressSpace) Adopt(child *AddressSpace) error {
	if a.store != child.store {
		return errors.New("mem: adopt across stores")
	}
	if err := a.table.Swap(child.table); err != nil {
		return err
	}
	child.table.Release()
	a.size = child.size
	return nil
}

// Discard releases the space's pages; used when eliminating a sibling.
// The space must not be used again.
func (a *AddressSpace) Discard() {
	a.table.Release()
}

// Snapshot returns a full copy of the space's contents as a flat byte
// slice (used by checkpointing and by tests asserting transparency).
func (a *AddressSpace) Snapshot() ([]byte, error) {
	out := make([]byte, a.size)
	if err := a.ReadAt(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Restore overwrites the space's contents from a flat byte slice of
// exactly Size() bytes.
func (a *AddressSpace) Restore(data []byte) error {
	if int64(len(data)) != a.size {
		return fmt.Errorf("mem: restore size %d != space size %d", len(data), a.size)
	}
	return a.WriteAt(data, 0)
}

// Equal reports whether two spaces have identical contents.
func (a *AddressSpace) Equal(b *AddressSpace) (bool, error) {
	if a.size != b.size {
		return false, nil
	}
	sa, err := a.Snapshot()
	if err != nil {
		return false, err
	}
	sb, err := b.Snapshot()
	if err != nil {
		return false, err
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false, nil
		}
	}
	return true, nil
}
