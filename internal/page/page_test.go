package page

import (
	"bytes"
	"testing"
)

func TestWriteThenRead(t *testing.T) {
	s := NewStore(64)
	tb := s.NewTable()
	w, err := tb.Write(3)
	if err != nil {
		t.Fatal(err)
	}
	copy(w, []byte("hello"))
	r, err := tb.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r[:5], []byte("hello")) {
		t.Fatalf("read back %q", r[:5])
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

func TestMissingPageReadsNil(t *testing.T) {
	s := NewStore(64)
	tb := s.NewTable()
	r, err := tb.Read(99)
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Fatalf("missing page must read as nil, got %v", r)
	}
}

func TestCloneSharesPages(t *testing.T) {
	s := NewStore(64)
	parent := s.NewTable()
	w, _ := parent.Write(0)
	copy(w, []byte("shared"))

	child, err := parent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !parent.SamePage(child, 0) {
		t.Fatal("clone must share physical pages")
	}
	if s.Copies() != 0 {
		t.Fatalf("clone must not copy data; Copies = %d", s.Copies())
	}
	if s.Clones() != 1 {
		t.Fatalf("Clones = %d, want 1", s.Clones())
	}

	// Child read still shares.
	r, _ := child.Read(0)
	if !bytes.Equal(r[:6], []byte("shared")) {
		t.Fatalf("child read %q", r[:6])
	}
	if !parent.SamePage(child, 0) {
		t.Fatal("read must not break sharing")
	}
}

func TestCopyOnWrite(t *testing.T) {
	s := NewStore(64)
	parent := s.NewTable()
	w, _ := parent.Write(0)
	copy(w, []byte("original"))
	child, _ := parent.Clone()

	// Child writes: page must be copied; parent unaffected.
	cw, _ := child.Write(0)
	copy(cw, []byte("childish"))

	if parent.SamePage(child, 0) {
		t.Fatal("write must break sharing")
	}
	pr, _ := parent.Read(0)
	if !bytes.Equal(pr[:8], []byte("original")) {
		t.Fatalf("parent sees %q after child write", pr[:8])
	}
	cr, _ := child.Read(0)
	if !bytes.Equal(cr[:8], []byte("childish")) {
		t.Fatalf("child sees %q", cr[:8])
	}
	if s.Copies() != 1 {
		t.Fatalf("Copies = %d, want 1", s.Copies())
	}
	if child.Copies() != 1 || parent.Copies() != 0 {
		t.Fatalf("per-table copies: child %d parent %d", child.Copies(), parent.Copies())
	}
}

func TestWriteExclusiveInPlace(t *testing.T) {
	s := NewStore(64)
	tb := s.NewTable()
	if _, err := tb.Write(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Write(0); err != nil {
		t.Fatal(err)
	}
	if s.Copies() != 0 {
		t.Fatalf("exclusive writes must not copy; Copies = %d", s.Copies())
	}
	if s.Allocs() != 1 {
		t.Fatalf("Allocs = %d, want 1", s.Allocs())
	}
}

func TestWriteAfterSiblingReleased(t *testing.T) {
	s := NewStore(64)
	parent := s.NewTable()
	if _, err := parent.Write(0); err != nil {
		t.Fatal(err)
	}
	child, _ := parent.Clone()
	child.Release()
	// Page is exclusive again: no copy on parent write.
	before := s.Copies()
	if _, err := parent.Write(0); err != nil {
		t.Fatal(err)
	}
	if s.Copies() != before {
		t.Fatal("write after sibling release must not copy")
	}
}

func TestSwap(t *testing.T) {
	s := NewStore(64)
	a := s.NewTable()
	b := s.NewTable()
	aw, _ := a.Write(0)
	copy(aw, []byte("AAAA"))
	bw, _ := b.Write(0)
	copy(bw, []byte("BBBB"))
	bw2, _ := b.Write(1)
	copy(bw2, []byte("B1"))

	if err := a.Swap(b); err != nil {
		t.Fatal(err)
	}
	ar, _ := a.Read(0)
	if !bytes.Equal(ar[:4], []byte("BBBB")) {
		t.Fatalf("a sees %q after swap", ar[:4])
	}
	if a.Len() != 2 || b.Len() != 1 {
		t.Fatalf("lens after swap: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestSwapAcrossStoresFails(t *testing.T) {
	a := NewStore(64).NewTable()
	b := NewStore(64).NewTable()
	if err := a.Swap(b); err == nil {
		t.Fatal("cross-store swap must fail")
	}
}

func TestReleasedErrors(t *testing.T) {
	s := NewStore(64)
	tb := s.NewTable()
	tb.Release()
	tb.Release() // idempotent
	if _, err := tb.Read(0); err != ErrReleased {
		t.Fatalf("Read after release: %v", err)
	}
	if _, err := tb.Write(0); err != ErrReleased {
		t.Fatalf("Write after release: %v", err)
	}
	if _, err := tb.Clone(); err != ErrReleased {
		t.Fatalf("Clone after release: %v", err)
	}
}

func TestSharedWith(t *testing.T) {
	s := NewStore(64)
	parent := s.NewTable()
	for i := int64(0); i < 10; i++ {
		if _, err := parent.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	child, _ := parent.Clone()
	if got := child.SharedWith(); got != 10 {
		t.Fatalf("SharedWith = %d, want 10", got)
	}
	// Child writes 3 pages: 7 remain shared.
	for i := int64(0); i < 3; i++ {
		if _, err := child.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := child.SharedWith(); got != 7 {
		t.Fatalf("SharedWith after writes = %d, want 7", got)
	}
}

func TestManySiblingsShareUntilWrite(t *testing.T) {
	s := NewStore(64)
	parent := s.NewTable()
	w, _ := parent.Write(0)
	copy(w, []byte("base"))
	const n = 8
	kids := make([]*Table, n)
	for i := range kids {
		k, err := parent.Clone()
		if err != nil {
			t.Fatal(err)
		}
		kids[i] = k
	}
	if s.Copies() != 0 {
		t.Fatal("no copies before any write")
	}
	// Every sibling writes the page: n copies, all independent.
	for i, k := range kids {
		kw, _ := k.Write(0)
		kw[0] = byte('0' + i)
	}
	if s.Copies() != n {
		t.Fatalf("Copies = %d, want %d", s.Copies(), n)
	}
	pr, _ := parent.Read(0)
	if !bytes.Equal(pr[:4], []byte("base")) {
		t.Fatalf("parent corrupted: %q", pr[:4])
	}
	for i, k := range kids {
		kr, _ := k.Read(0)
		if kr[0] != byte('0'+i) {
			t.Fatalf("sibling %d corrupted: %q", i, kr[0])
		}
	}
}

func TestDefaultPageSize(t *testing.T) {
	if NewStore(0).PageSize() != DefaultPageSize {
		t.Fatal("size <= 0 must select DefaultPageSize")
	}
	if NewStore(-1).PageSize() != DefaultPageSize {
		t.Fatal("size <= 0 must select DefaultPageSize")
	}
}
