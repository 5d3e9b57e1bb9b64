package page

import (
	"bytes"
	"testing"
)

// Tests specific to the layered-table design: O(1) clone, buffer
// pooling, tombstones, compaction, and the refcount assertions.

func TestCloneIsO1(t *testing.T) {
	s := NewStore(64)
	parent := s.NewTable()
	for n := int64(0); n < 1000; n++ {
		if _, err := parent.Write(n); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		child, err := parent.Clone()
		if err != nil {
			t.Fatal(err)
		}
		child.Release()
	})
	// Clone allocates the child table (its delta is allocated on its
	// first write); it must not scale with the 1000 resident pages.
	if allocs > 4 {
		t.Fatalf("Clone of 1000-page table costs %.0f allocs/op, want O(1)", allocs)
	}
	if parent.Len() != 1000 {
		t.Fatalf("Len = %d after clones, want 1000", parent.Len())
	}
}

func TestPoolRecyclesReleasedBuffers(t *testing.T) {
	s := NewStore(64)
	parent := s.NewTable()
	for n := int64(0); n < 8; n++ {
		if _, err := parent.Write(n); err != nil {
			t.Fatal(err)
		}
	}
	// First generation: child COW-faults every page, then is released,
	// returning its private copies to the pool.
	for gen := 0; gen < 3; gen++ {
		child, err := parent.Clone()
		if err != nil {
			t.Fatal(err)
		}
		for n := int64(0); n < 8; n++ {
			w, err := child.Write(n)
			if err != nil {
				t.Fatal(err)
			}
			w[0] = byte(gen)
		}
		child.Release()
	}
	if s.Recycled() == 0 {
		t.Fatal("pool never recycled a buffer across clone/fault/release generations")
	}
	// Counters keep their eager-design semantics.
	if s.Copies() != 24 {
		t.Fatalf("Copies = %d, want 24 (8 faults × 3 generations)", s.Copies())
	}
	if s.Allocs() != 8 {
		t.Fatalf("Allocs = %d, want 8 (only the parent's fresh pages)", s.Allocs())
	}
}

func TestDropReturnsBufferAndShadowsChain(t *testing.T) {
	s := NewStore(64)
	parent := s.NewTable()
	w, _ := parent.Write(0)
	copy(w, []byte("base"))
	child, err := parent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Child drops the inherited page: a tombstone must shadow the
	// shared occurrence, not free it.
	if err := child.Drop(0); err != nil {
		t.Fatal(err)
	}
	if r, _ := child.Read(0); r != nil {
		t.Fatalf("dropped page reads %q, want nil", r)
	}
	pr, _ := parent.Read(0)
	if !bytes.Equal(pr[:4], []byte("base")) {
		t.Fatalf("parent lost the page to a child drop: %q", pr[:4])
	}
	if child.Len() != 0 || parent.Len() != 1 {
		t.Fatalf("Len child=%d parent=%d, want 0/1", child.Len(), parent.Len())
	}
	// Writing after the drop materializes a fresh zero page (an alloc,
	// not a copy of the shadowed data).
	copiesBefore, allocsBefore := s.Copies(), s.Allocs()
	cw, err := child.Write(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw[:4], []byte{0, 0, 0, 0}) {
		t.Fatalf("write after drop sees stale data %q", cw[:4])
	}
	if s.Copies() != copiesBefore || s.Allocs() != allocsBefore+1 {
		t.Fatalf("write after drop: copies %d→%d allocs %d→%d, want alloc not copy",
			copiesBefore, s.Copies(), allocsBefore, s.Allocs())
	}
}

func TestTombstoneSurvivesCloneAndCompaction(t *testing.T) {
	s := NewStore(64)
	tb := s.NewTable()
	if _, err := tb.Write(7); err != nil {
		t.Fatal(err)
	}
	c1, err := tb.Clone() // page 7 now lives in a frozen layer
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Drop(7); err != nil {
		t.Fatal(err)
	}
	c2, err := tb.Clone() // tombstone frozen into a layer
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := c2.Read(7); r != nil {
		t.Fatal("clone of a dropped page must read nil")
	}
	if r, _ := c1.Read(7); r == nil {
		t.Fatal("pre-drop clone lost the page")
	}
	c1.Release()
	c2.Release()
	// Force compaction of the (now exclusive) chain; the tombstone must
	// vanish with it, not resurrect the page.
	for i := 0; i < compactDepth+2; i++ {
		if _, err := tb.Write(int64(100 + i)); err != nil {
			t.Fatal(err)
		}
		c, err := tb.Clone()
		if err != nil {
			t.Fatal(err)
		}
		c.Release()
	}
	if r, _ := tb.Read(7); r != nil {
		t.Fatal("compaction resurrected a dropped page")
	}
}

func TestCompactionBoundsDepth(t *testing.T) {
	s := NewStore(64)
	parent := s.NewTable()
	want := make(map[int64]byte)
	// Churn like RunAlt does: fork, child writes, commit (Swap), release.
	for gen := 0; gen < 4*compactDepth; gen++ {
		if _, err := parent.Write(int64(gen % 5)); err != nil {
			t.Fatal(err)
		}
		child, err := parent.Clone()
		if err != nil {
			t.Fatal(err)
		}
		w, err := child.Write(int64(gen % 7))
		if err != nil {
			t.Fatal(err)
		}
		w[0] = byte(gen)
		want[int64(gen%7)] = byte(gen)
		if err := parent.Swap(child); err != nil {
			t.Fatal(err)
		}
		child.Release()
	}
	if d := parent.Depth(); d > compactDepth {
		t.Fatalf("chain depth %d after churn, want <= %d (compaction)", d, compactDepth)
	}
	if s.Compactions() == 0 {
		t.Fatal("no compaction happened over 4×compactDepth generations")
	}
	for n, b := range want {
		r, err := parent.Read(n)
		if err != nil {
			t.Fatal(err)
		}
		if r[0] != b {
			t.Fatalf("page %d = %d after compaction, want %d", n, r[0], b)
		}
	}
}

func TestSharedChainIsNotCompacted(t *testing.T) {
	s := NewStore(64)
	tb := s.NewTable()
	var pins []*Table
	for i := 0; i < 2*compactDepth; i++ {
		if _, err := tb.Write(int64(i)); err != nil {
			t.Fatal(err)
		}
		pin, err := tb.Clone()
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, pin)
	}
	if s.Compactions() != 0 {
		t.Fatal("compacted a chain other tables still reference")
	}
	// Every pin sees exactly the pages that existed when it was taken.
	for i, pin := range pins {
		if pin.Len() != i+1 {
			t.Fatalf("pin %d Len = %d, want %d", i, pin.Len(), i+1)
		}
		if r, _ := pin.Read(int64(i)); r == nil {
			t.Fatalf("pin %d lost its newest page", i)
		}
		if r, _ := pin.Read(int64(i + 1)); r != nil {
			t.Fatalf("pin %d sees a page from the future", i)
		}
	}
	for _, pin := range pins {
		pin.Release()
	}
	// Chain is exclusive again: the next clone folds it.
	c, err := tb.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	if s.Compactions() == 0 {
		t.Fatal("exclusive chain not folded once the pins released")
	}
}

// TestStoreHookObservesFaultsAndCompaction: the store's counters see
// every fresh-page fault, COW copy and chain fold.
func TestStoreHookObservesFaultsAndCompaction(t *testing.T) {
	s := NewStore(64)
	tb := s.NewTable()
	for i := 0; i < 2*compactDepth; i++ {
		if _, err := tb.Write(int64(i)); err != nil {
			t.Fatal(err)
		}
		c, err := tb.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(int64(i)); err != nil { // COW fault
			t.Fatal(err)
		}
		c.Release()
	}
	// Each round writes one fresh page in tb and copies it in the clone.
	if s.Allocs() != 2*compactDepth || s.Copies() != 2*compactDepth || s.Compactions() == 0 {
		t.Fatalf("store counted allocs=%d copies=%d compactions=%d, want %d, %d, > 0",
			s.Allocs(), s.Copies(), s.Compactions(), 2*compactDepth, 2*compactDepth)
	}
}

func TestRefDebugCatchesDoubleRelease(t *testing.T) {
	EnableRefDebug(true)
	defer EnableRefDebug(false)

	// Normal lifecycles must not trip the assertion.
	s := NewStore(64)
	tb := s.NewTable()
	if _, err := tb.Write(0); err != nil {
		t.Fatal(err)
	}
	c, err := tb.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	c.Release() // idempotent
	tb.Release()

	// A double chain release (white-box: impossible through the public
	// API) must panic instead of corrupting the pool.
	l := &layer{pages: make([]*pageBuf, 4), depth: 1}
	l.refs.Store(1)
	s.releaseChain(l)
	defer func() {
		if recover() == nil {
			t.Fatal("double releaseChain did not panic with refdebug on")
		}
	}()
	s.releaseChain(l)
}
