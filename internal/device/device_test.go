package device

import (
	"errors"
	"testing"

	"altrun/internal/ids"
	"altrun/internal/page"
	"altrun/internal/predicate"
)

func specSet(t *testing.T) *predicate.Set {
	t.Helper()
	s, err := predicate.New().WithComplete(ids.PID(9))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConsoleWriteResolved(t *testing.T) {
	c := NewConsole()
	if err := c.Write(ids.PID(1), predicate.New(), "hello"); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(ids.PID(1), nil, "world"); err != nil {
		t.Fatal(err)
	}
	out := c.Output()
	if len(out) != 2 || out[0] != "hello" || out[1] != "world" {
		t.Fatalf("output = %v", out)
	}
}

func TestConsoleWriteSpeculativeBlocked(t *testing.T) {
	c := NewConsole()
	err := c.Write(ids.PID(1), specSet(t), "leak")
	if !errors.Is(err, ErrSpeculative) {
		t.Fatalf("err = %v, want ErrSpeculative", err)
	}
	if len(c.Output()) != 0 {
		t.Fatal("speculative write must not reach the source")
	}
}

func TestConsoleReadBuffered(t *testing.T) {
	c := NewConsole()
	c.Feed("first", "second")
	// Two sibling timelines both read index 0: same line, consumed once.
	a, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != "first" || b != "first" {
		t.Fatalf("reads = %q, %q", a, b)
	}
	if c.ReadsConsumed() != 1 {
		t.Fatalf("consumed = %d, want 1", c.ReadsConsumed())
	}
	// Next index advances.
	s, err := c.Read(1)
	if err != nil || s != "second" {
		t.Fatalf("read[1] = %q, %v", s, err)
	}
}

func TestConsoleReadGapFillsSequentially(t *testing.T) {
	c := NewConsole()
	c.Feed("a", "b", "c")
	// Reading index 2 first consumes 0..2 in order.
	s, err := c.Read(2)
	if err != nil || s != "c" {
		t.Fatalf("read[2] = %q, %v", s, err)
	}
	if c.ReadsConsumed() != 3 {
		t.Fatalf("consumed = %d", c.ReadsConsumed())
	}
	// Earlier indices replay from buffer.
	s, err = c.Read(0)
	if err != nil || s != "a" {
		t.Fatalf("read[0] = %q, %v", s, err)
	}
}

func TestConsoleReadErrors(t *testing.T) {
	c := NewConsole()
	if _, err := c.Read(0); !errors.Is(err, ErrNoInput) {
		t.Fatalf("err = %v, want ErrNoInput", err)
	}
	if _, err := c.Read(-1); err == nil {
		t.Fatal("negative index must fail")
	}
}

func TestFileStoreCreateAndRead(t *testing.T) {
	fs := NewFileStore(page.NewStore(64))
	if err := fs.Create("db", 256); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("db", 256); err == nil {
		t.Fatal("duplicate create must fail")
	}
	buf := make([]byte, 4)
	if err := fs.ReadAt("db", buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadAt("nope", buf, 0); err == nil {
		t.Fatal("missing file must fail")
	}
	if len(fs.Names()) != 1 {
		t.Fatalf("names = %v", fs.Names())
	}
}

func TestViewIsolationAndCommit(t *testing.T) {
	fs := NewFileStore(page.NewStore(64))
	if err := fs.Create("db", 256); err != nil {
		t.Fatal(err)
	}
	v1, err := fs.View()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := fs.View()
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.WriteAt("db", []byte("ALT1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := v2.WriteAt("db", []byte("ALT2"), 0); err != nil {
		t.Fatal(err)
	}
	// Committed contents unchanged while both views are speculative.
	buf := make([]byte, 4)
	if err := fs.ReadAt("db", buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "\x00\x00\x00\x00" {
		t.Fatalf("committed contents changed early: %q", buf)
	}
	// v1 wins; v2 is discarded.
	if err := v1.Commit(); err != nil {
		t.Fatal(err)
	}
	v2.Discard()
	if err := fs.ReadAt("db", buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ALT1" {
		t.Fatalf("committed = %q, want ALT1", buf)
	}
}

func TestViewDoubleCommitFails(t *testing.T) {
	fs := NewFileStore(page.NewStore(64))
	if err := fs.Create("f", 64); err != nil {
		t.Fatal(err)
	}
	v, err := fs.View()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err == nil {
		t.Fatal("double commit must fail")
	}
	v.Discard() // idempotent no-op after finish
}

func TestViewUnknownFile(t *testing.T) {
	fs := NewFileStore(page.NewStore(64))
	v, err := fs.View()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.ReadAt("x", make([]byte, 1), 0); err == nil {
		t.Fatal("unknown file read must fail")
	}
	if err := v.WriteAt("x", []byte{1}, 0); err == nil {
		t.Fatal("unknown file write must fail")
	}
}

func TestViewSeesCommittedBase(t *testing.T) {
	fs := NewFileStore(page.NewStore(64))
	if err := fs.Create("f", 64); err != nil {
		t.Fatal(err)
	}
	v1, _ := fs.View()
	if err := v1.WriteAt("f", []byte("base"), 0); err != nil {
		t.Fatal(err)
	}
	if err := v1.Commit(); err != nil {
		t.Fatal(err)
	}
	v2, _ := fs.View()
	buf := make([]byte, 4)
	if err := v2.ReadAt("f", buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "base" {
		t.Fatalf("new view sees %q", buf)
	}
	v2.Discard()
}
