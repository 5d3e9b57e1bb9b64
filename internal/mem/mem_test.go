package mem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"altrun/internal/page"
)

func newSpace(t *testing.T, pageSize int, size int64) *AddressSpace {
	t.Helper()
	return New(page.NewStore(pageSize), size)
}

func TestZeroFill(t *testing.T) {
	a := newSpace(t, 64, 1000)
	buf := make([]byte, 1000)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := a.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %x, want 0", i, b)
		}
	}
}

func TestWriteReadAcrossPages(t *testing.T) {
	a := newSpace(t, 16, 100)
	data := []byte("this string spans several sixteen-byte pages")
	if err := a.WriteAt(data, 7); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := a.ReadAt(got, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
	// Neighbouring bytes stay zero.
	var b [1]byte
	if err := a.ReadAt(b[:], 6); err != nil || b[0] != 0 {
		t.Fatalf("byte before write = %x (%v)", b[0], err)
	}
}

func TestOutOfRange(t *testing.T) {
	a := newSpace(t, 64, 100)
	if err := a.WriteAt([]byte("x"), 100); err == nil {
		t.Fatal("write at size must fail")
	}
	if err := a.ReadAt(make([]byte, 2), 99); err == nil {
		t.Fatal("read crossing end must fail")
	}
	if err := a.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative offset must fail")
	}
	// Boundary success: last byte.
	if err := a.WriteAt([]byte("x"), 99); err != nil {
		t.Fatal(err)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	a := newSpace(t, 64, 256)
	if err := a.WriteUint64(100, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	v, err := a.ReadUint64(100)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("got %x", v)
	}
}

func TestForkIsolation(t *testing.T) {
	a := newSpace(t, 32, 256)
	if err := a.WriteAt([]byte("parent data"), 0); err != nil {
		t.Fatal(err)
	}
	child, err := a.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Child sees parent data.
	got := make([]byte, 11)
	if err := child.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "parent data" {
		t.Fatalf("child sees %q", got)
	}
	// Child writes do not affect parent.
	if err := child.WriteAt([]byte("CHILD"), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "parent data" {
		t.Fatalf("parent corrupted: %q", got)
	}
}

func TestForkSharesUntilWrite(t *testing.T) {
	store := page.NewStore(32)
	a := New(store, 320) // 10 pages
	buf := make([]byte, 320)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := a.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	child, _ := a.Fork()
	if store.Copies() != 0 {
		t.Fatal("fork must not copy pages")
	}
	// Child writes one byte: exactly one page copy.
	if err := child.WriteAt([]byte{1}, 100); err != nil {
		t.Fatal(err)
	}
	if store.Copies() != 1 {
		t.Fatalf("Copies = %d, want 1", store.Copies())
	}
	if child.CopiedPages() != 1 {
		t.Fatalf("child CopiedPages = %d, want 1", child.CopiedPages())
	}
}

func TestAdoptTransparency(t *testing.T) {
	a := newSpace(t, 32, 256)
	if err := a.WriteAt([]byte("before"), 0); err != nil {
		t.Fatal(err)
	}
	child, _ := a.Fork()
	if err := child.WriteAt([]byte("winner result"), 64); err != nil {
		t.Fatal(err)
	}
	want, _ := child.Snapshot()

	if err := a.Adopt(child); err != nil {
		t.Fatal(err)
	}
	got, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("parent after Adopt must equal child's state byte-for-byte")
	}
}

func TestDiscardLoserInvisible(t *testing.T) {
	a := newSpace(t, 32, 256)
	if err := a.WriteAt([]byte("stable"), 0); err != nil {
		t.Fatal(err)
	}
	loser, _ := a.Fork()
	if err := loser.WriteAt([]byte("EVIL"), 0); err != nil {
		t.Fatal(err)
	}
	loser.Discard()
	got := make([]byte, 6)
	if err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "stable" {
		t.Fatalf("loser's writes leaked: %q", got)
	}
}

func TestFullCopyIndependence(t *testing.T) {
	store := page.NewStore(32)
	a := New(store, 128)
	if err := a.WriteAt([]byte("rb-state"), 0); err != nil {
		t.Fatal(err)
	}
	cp, err := a.FullCopy()
	if err != nil {
		t.Fatal(err)
	}
	eq, err := a.Equal(cp)
	if err != nil || !eq {
		t.Fatalf("full copy must be equal (eq=%v err=%v)", eq, err)
	}
	// No page sharing at all: parent write must cause no COW copy.
	before := store.Copies()
	if err := a.WriteAt([]byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	if store.Copies() != before {
		t.Fatal("full copy must not share pages with the parent")
	}
}

func TestSnapshotRestore(t *testing.T) {
	a := newSpace(t, 32, 100)
	if err := a.WriteAt([]byte("xyzzy"), 50); err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := newSpace(t, 32, 100)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	eq, err := a.Equal(b)
	if err != nil || !eq {
		t.Fatalf("restored space differs (eq=%v err=%v)", eq, err)
	}
	if err := b.Restore(make([]byte, 5)); err == nil {
		t.Fatal("restore with wrong size must fail")
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	a := newSpace(t, 32, 100)
	b := newSpace(t, 32, 200)
	eq, err := a.Equal(b)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("different-size spaces are never equal")
	}
}

// Property test: an AddressSpace behaves exactly like a flat byte array
// under an arbitrary interleaving of reads, writes, forks, and adopts.
func TestAddressSpaceMatchesFlatModel(t *testing.T) {
	const size = 512
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		store := page.NewStore(32)
		space := New(store, size)
		model := make([]byte, size)

		type pair struct {
			s *AddressSpace
			m []byte
		}
		cur := pair{space, model}
		var forks []pair

		for op := 0; op < 200; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // write
				off := rng.Int63n(size)
				n := rng.Intn(int(size-off)) + 1
				data := make([]byte, n)
				rng.Read(data)
				if err := cur.s.WriteAt(data, off); err != nil {
					t.Logf("write: %v", err)
					return false
				}
				copy(cur.m[off:], data)
			case 4, 5, 6, 7: // read & compare
				off := rng.Int63n(size)
				n := rng.Intn(int(size-off)) + 1
				got := make([]byte, n)
				if err := cur.s.ReadAt(got, off); err != nil {
					t.Logf("read: %v", err)
					return false
				}
				if !bytes.Equal(got, cur.m[off:off+int64(n)]) {
					t.Logf("mismatch at %d+%d", off, n)
					return false
				}
			case 8: // fork: keep old as a frozen sibling to check isolation
				child, err := cur.s.Fork()
				if err != nil {
					t.Logf("fork: %v", err)
					return false
				}
				mcopy := make([]byte, size)
				copy(mcopy, cur.m)
				forks = append(forks, cur)
				cur = pair{child, mcopy}
			case 9: // verify a random frozen sibling is untouched
				if len(forks) > 0 {
					p := forks[rng.Intn(len(forks))]
					got := make([]byte, size)
					if err := p.s.ReadAt(got, 0); err != nil {
						t.Logf("sibling read: %v", err)
						return false
					}
					if !bytes.Equal(got, p.m) {
						t.Log("sibling was corrupted by descendant writes")
						return false
					}
				}
			}
		}
		// Final full compare.
		got := make([]byte, size)
		if err := cur.s.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, cur.m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAdoptAcrossStoresFails(t *testing.T) {
	a := New(page.NewStore(32), 100)
	b := New(page.NewStore(32), 100)
	if err := a.Adopt(b); err == nil {
		t.Fatal("adopt across stores must fail")
	}
}

// Stress: many sibling forks writing concurrently from separate
// goroutines. Each table is single-owner, pages are shared; run with
// -race to validate the atomic refcount discipline.
func TestConcurrentSiblingWrites(t *testing.T) {
	store := page.NewStore(128)
	parent := New(store, 8192)
	base := make([]byte, 8192)
	for i := range base {
		base[i] = byte(i)
	}
	if err := parent.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	const siblings = 16
	forks := make([]*AddressSpace, siblings)
	for i := range forks {
		f, err := parent.Fork()
		if err != nil {
			t.Fatal(err)
		}
		forks[i] = f
	}
	var wg sync.WaitGroup
	for i, f := range forks {
		i, f := i, f
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for op := 0; op < 200; op++ {
				off := rng.Int63n(8192 - 16)
				buf := []byte{byte(i), byte(op), byte(i), byte(op)}
				if err := f.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, 4)
				if err := f.ReadAt(got, off); err != nil {
					t.Error(err)
					return
				}
				for k := range got {
					if got[k] != buf[k] {
						t.Errorf("sibling %d: read back %v, wrote %v", i, got, buf)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Parent untouched by any sibling.
	after, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, base) {
		t.Fatal("concurrent sibling writes corrupted the parent")
	}
	for _, f := range forks {
		f.Discard()
	}
	// All pages exclusive again: a parent write must not copy.
	before := store.Copies()
	if err := parent.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if store.Copies() != before {
		t.Fatal("pages still shared after all siblings discarded")
	}
}
