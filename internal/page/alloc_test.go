package page

import "testing"

// The page layer's allocation ratchet: a read allocates nothing, and a
// warmed-up fork → write → release cycle allocates a small constant,
// whatever the table's size. Each test fails if its count grows.

// forkCycleAllocs bounds one warmed-up clone → 256 first writes →
// release cycle on a 1 024-page table: the child Table itself, plus
// slack. Page buffers and slot arrays come from the store's pools.
const forkCycleAllocs = 2

func TestReadThroughChainAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	const pages, depth = 1024, 4
	s := NewStore(64)
	tb := s.NewTable()
	var pins []*Table // hold every layer shared, so nothing compacts
	for d := int64(0); d < depth; d++ {
		for n := d; n < pages; n += depth { // a quarter of the pages per layer
			if _, err := tb.Write(n); err != nil {
				t.Fatal(err)
			}
		}
		pin, err := tb.Clone()
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, pin)
	}
	// A fresh reader per call: no call can profit from an earlier one.
	const runs = 4
	readers := make([]*Table, runs+1) // AllocsPerRun adds a warm-up call
	for i := range readers {
		r, err := tb.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if r.Depth() != depth {
			t.Fatalf("reader depth %d, want %d", r.Depth(), depth)
		}
		readers[i] = r
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		r := readers[next]
		next++
		for n := int64(0); n < pages; n++ {
			if p, err := r.Read(n); err != nil || p == nil {
				t.Fatalf("Read(%d) = %v, %v; want a resident page", n, p, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("reading %d pages through a %d-layer chain allocates %.0f objects, want 0", pages, depth, allocs)
	}
	for _, r := range append(readers, pins...) {
		r.Release()
	}
}

func TestForkWriteCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	const pages, writes = 1024, 256
	s := NewStore(64)
	parent := s.NewTable()
	for n := int64(0); n < pages; n++ {
		if _, err := parent.Write(n); err != nil {
			t.Fatal(err)
		}
	}
	copiesBefore := s.Copies()
	cycle := func() {
		child, err := parent.Clone()
		if err != nil {
			t.Fatal(err)
		}
		for n := int64(0); n < pages; n += pages / writes {
			if _, err := child.Write(n); err != nil {
				t.Fatal(err)
			}
		}
		child.Release()
	}
	cycle() // fill the pools
	const runs = 100
	allocs := testing.AllocsPerRun(runs, cycle)
	if allocs > forkCycleAllocs {
		t.Fatalf("clone → %d first writes → release allocates %.0f objects, want <= %d", writes, allocs, forkCycleAllocs)
	}
	if got, want := s.Copies()-copiesBefore, int64((runs+2)*writes); got != want {
		t.Fatalf("cycles copied %d pages, want %d (every first write copies)", got, want)
	}
}
