package mem

import (
	"bytes"
	"testing"

	"altrun/internal/page"
)

// COW isolation at every point where a table's sharing state changes
// under the space: a parent write after Fork, Adopt swapping maps, a
// write to a shared page the space has just read.

func TestParentWriteAfterForkCopies(t *testing.T) {
	// After Fork the parent's page, written in place a moment earlier,
	// is shared: the parent's next write must copy it, not write through
	// the child's view.
	s := page.NewStore(64)
	parent := New(s, 64*4)
	if err := parent.WriteAt([]byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.WriteAt([]byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if err := child.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("child reads %q after parent post-fork write, want %q (COW violated)", got, "v1")
	}
}

func TestAdoptReadsAndWritesChildMap(t *testing.T) {
	// Both sides write page 0, diverge, then Adopt swaps the tables.
	// The parent must read the child's committed value, not its own
	// pre-commit buffer.
	s := page.NewStore(64)
	parent := New(s, 64*4)
	if err := parent.WriteAt([]byte("old"), 0); err != nil {
		t.Fatal(err)
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.WriteAt([]byte("new"), 0); err != nil {
		t.Fatal(err)
	}
	// The parent writes the same page post-fork.
	if err := parent.WriteAt([]byte("old"), 0); err != nil {
		t.Fatal(err)
	}
	if err := parent.Adopt(child); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := parent.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("new")) {
		t.Fatalf("parent reads %q after Adopt, want %q (stale page)", got, "new")
	}
	// And writes after Adopt land in the adopted table.
	if err := parent.WriteAt([]byte("post"), 0); err != nil {
		t.Fatal(err)
	}
	if err := parent.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("pos")) {
		t.Fatalf("parent reads %q after post-Adopt write, want %q", got, "pos")
	}
}

func TestWriteAfterReadOfSharedPageCopies(t *testing.T) {
	// A page ReadAt returned is not writable: a later WriteAt to the
	// same page must COW-fault a private copy, not scribble on the
	// shared buffer.
	s := page.NewStore(64)
	parent := New(s, 64*4)
	if err := parent.WriteAt([]byte("aa"), 0); err != nil {
		t.Fatal(err)
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Read the shared page...
	got := make([]byte, 2)
	if err := child.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	// ...then write it. The write must fault a private copy.
	if err := child.WriteAt([]byte("bb"), 0); err != nil {
		t.Fatal(err)
	}
	if err := parent.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("aa")) {
		t.Fatalf("parent reads %q after child write, want %q (write reached the shared page)", got, "aa")
	}
	if child.CopiedPages() != 1 {
		t.Fatalf("child CopiedPages = %d, want 1", child.CopiedPages())
	}
}

func TestWriteAtDoesNotAllocateSteadyState(t *testing.T) {
	// A steady-state write to an already-faulted page must not
	// allocate.
	s := page.NewStore(64)
	a := New(s, 64*16)
	buf := []byte("x")
	if err := a.WriteAt(buf, 5*64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := a.WriteAt(buf, 5*64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state WriteAt costs %.1f allocs/op, want 0", allocs)
	}
}
