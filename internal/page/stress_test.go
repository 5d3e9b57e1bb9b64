package page

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentCloneWriteRelease is the -race stress for the layered
// design's concurrency contract: each Table is single-owner, but layers
// and their pages are shared across goroutines, guarded only by atomic
// reference counts. Every goroutine owns a private fork of one shared
// parent and churns clone/write/commit/release cycles against the
// shared chain while its siblings do the same. A commit (Swap with a
// grandchild) grows the fork's chain, so forks fold their exclusive top
// down to the parent's layer while siblings release references to it.
func TestConcurrentCloneWriteRelease(t *testing.T) {
	EnableRefDebug(true)
	defer EnableRefDebug(false)

	const (
		pages    = 32
		siblings = 12
		ops      = 300
	)
	s := NewStore(128)
	parent := s.NewTable()
	base := make([]byte, 128)
	for n := int64(0); n < pages; n++ {
		w, err := parent.Write(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w {
			w[i] = byte(n)
		}
		copy(base, w)
	}

	// Fork all siblings up front (Clone is single-owner on the parent)
	// and check that sharing is maximal before any write: every page of
	// every fork is physically the parent's page.
	forks := make([]*Table, siblings)
	for i := range forks {
		f, err := parent.Clone()
		if err != nil {
			t.Fatal(err)
		}
		forks[i] = f
	}
	copiesBeforeWrites := s.Copies()
	if copiesBeforeWrites != 0 {
		t.Fatalf("Copies = %d before any write, want 0", copiesBeforeWrites)
	}
	for i, f := range forks {
		for n := int64(0); n < pages; n++ {
			if !f.SamePage(parent, n) {
				t.Fatalf("fork %d page %d not shared before first write", i, n)
			}
		}
		if got := f.SharedWith(); got != pages {
			t.Fatalf("fork %d SharedWith = %d, want %d (maximal sharing)", i, got, pages)
		}
	}
	allocsBefore, clonesBefore := s.Allocs(), s.Clones()

	var wg sync.WaitGroup
	var totalWrites int64
	var mu sync.Mutex
	for i, f := range forks {
		i, f := i, f
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			cur := f
			writes := int64(0)
			var grandkids []*Table
			for op := 0; op < ops; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // write (fault or in-place)
					n := rng.Int63n(pages)
					w, err := cur.Write(n)
					if err != nil {
						t.Error(err)
						return
					}
					w[0] = byte(i)
					writes++
				case 5, 6: // read, verify it is ours or the parent's value
					n := rng.Int63n(pages)
					r, err := cur.Read(n)
					if err != nil {
						t.Error(err)
						return
					}
					if r != nil && r[0] != byte(i) && r[0] != byte(n) {
						t.Errorf("sibling %d read foreign byte %d on page %d", i, r[0], n)
						return
					}
				case 7: // clone a grandchild
					g, err := cur.Clone()
					if err != nil {
						t.Error(err)
						return
					}
					grandkids = append(grandkids, g)
				case 8: // release a grandchild
					if len(grandkids) > 0 {
						k := rng.Intn(len(grandkids))
						grandkids[k].Release()
						grandkids = append(grandkids[:k], grandkids[k+1:]...)
					}
				case 9: // commit a grandchild: take its map, release ours
					if len(grandkids) > 0 {
						k := rng.Intn(len(grandkids))
						if err := cur.Swap(grandkids[k]); err != nil {
							t.Error(err)
							return
						}
						grandkids[k].Release()
						grandkids = append(grandkids[:k], grandkids[k+1:]...)
					}
				}
			}
			for _, g := range grandkids {
				g.Release()
			}
			cur.Release()
			mu.Lock()
			totalWrites += writes
			mu.Unlock()
		}()
	}
	wg.Wait()

	// Accounting invariants: every page exists in the parent, so forks
	// never alloc fresh pages by writing inherited ones; each COW copy
	// corresponds to at most one write, and clone count covers every
	// fork made.
	if s.Copies() > totalWrites {
		t.Fatalf("Copies = %d > total writes %d", s.Copies(), totalWrites)
	}
	if s.Allocs() != allocsBefore {
		t.Fatalf("Allocs grew by %d; every written page was inherited", s.Allocs()-allocsBefore)
	}
	if s.Clones()-clonesBefore < 0 || s.Clones() < int64(siblings) {
		t.Fatalf("Clones = %d, want >= %d", s.Clones(), siblings)
	}

	// The parent was never written by any sibling.
	for n := int64(0); n < pages; n++ {
		r, err := parent.Read(n)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{byte(n)}, 128)
		if !bytes.Equal(r, want) {
			t.Fatalf("parent page %d corrupted by concurrent siblings", n)
		}
	}
	// With every fork released the chain is exclusive again: parent
	// writes must be in-place, not copies.
	copiesAfter := s.Copies()
	for n := int64(0); n < pages; n++ {
		if _, err := parent.Write(n); err != nil {
			t.Fatal(err)
		}
	}
	if s.Copies() != copiesAfter {
		t.Fatalf("parent writes after all releases copied %d pages, want 0",
			s.Copies()-copiesAfter)
	}
}
