package page

import "testing"

// Tests specific to the layered-table design: O(1) clone, buffer
// pooling, compaction, and the refcount assertions.

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
	// Folding moves pages between layers but never invents one: a page
	// no generation wrote still reads as missing.
	if r, _ := parent.Read(100); r != nil {
		t.Fatal("compaction materialized a page nothing wrote")
	}
}

// TestFoldAboveStraggler: a straggling table (a killed loser that has
// not released yet) pins one early layer while the root keeps
// committing blocks. The chain above the pin must still fold every
// compactDepth blocks, the pin must keep reading its snapshot, and once
// it releases, the next Clone folds the whole chain.
func TestFoldAboveStraggler(t *testing.T) {
	s := NewStore(64)
	root := s.NewTable()
	var want [16]byte
	block := func(i int) {
		child, err := root.Clone()
		if err != nil {
			t.Fatal(err)
		}
		w, err := child.Write(int64(i % 16))
		if err != nil {
			t.Fatal(err)
		}
		w[0] = byte(i)
		want[i%16] = byte(i)
		if err := root.Swap(child); err != nil {
			t.Fatal(err)
		}
		child.Release()
	}
	// compactDepth-1 blocks put the pinned layer at depth compactDepth:
	// once the pin releases, the whole chain is exclusive and at least
	// compactDepth deep, so the next Clone has to fold it.
	for i := 0; i < compactDepth-1; i++ {
		block(i)
	}
	pin, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := want
	pinDepth := pin.Depth()
	compactionsBefore := s.Compactions()
	for i := compactDepth - 1; i < 100+compactDepth-1; i++ {
		block(i)
		if above := root.Depth() - pinDepth; above > compactDepth {
			t.Fatalf("block %d: %d layers above the pinned one, want <= %d", i, above, compactDepth)
		}
	}
	if s.Compactions() == compactionsBefore {
		t.Fatal("no fold while the straggler pinned an old layer")
	}
	firstByte := func(tb *Table, n int) byte {
		r, err := tb.Read(int64(n))
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			return 0
		}
		return r[0]
	}
	for n, b := range snapshot {
		if got := firstByte(pin, n); got != b {
			t.Fatalf("pin page %d reads %d, want its snapshot value %d", n, got, b)
		}
	}
	for n, b := range want {
		if got := firstByte(root, n); got != b {
			t.Fatalf("root page %d reads %d after the blocks, want %d", n, got, b)
		}
	}
	pin.Release()
	c, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	if d := root.Depth(); d > 1 {
		t.Fatalf("chain depth %d after the pin released, want <= 1 (folded)", d)
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
