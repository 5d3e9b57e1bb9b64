// Package device models the paper's source/sink division of system
// state (§3.1): "operations on sink devices can be retried without the
// effects being visible, while operations on sources cannot be retried.
// For definiteness, consider a page of backing store and a teletype
// device, respectively."
//
// Sinks here are paged files (FileStore: "files are named sets of
// pages", §3.1) that speculative worlds access through COW views.
// Sources are represented by Console, whose writes demand fully
// resolved predicates (§3.4.2: a process with unsatisfied predicates
// "cannot interface with sources") and whose reads are buffered so that
// "idempotency of some source state can be forced through buffering"
// (§6) — every timeline reading input position i observes the same
// line.
package device

import (
	"errors"
	"fmt"
	"sync"

	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/page"
	"altrun/internal/predicate"
)

// ErrSpeculative is returned when a world with unresolved predicates
// attempts a non-idempotent source operation.
var ErrSpeculative = errors.New("device: speculative world may not touch a source")

// ErrNoInput is returned when a console read outruns the supplied input.
var ErrNoInput = errors.New("device: no input available")

// Console is a teletype-style source device. It is safe for concurrent
// use.
type Console struct {
	mu     sync.Mutex
	output []string
	input  []string
	// reads[i] is the buffered result of input read i; replayed reads of
	// the same index observe the same line, forcing idempotence.
	reads []string
}

// NewConsole returns an empty console.
func NewConsole() *Console { return &Console{} }

// Feed appends input lines for future reads.
func (c *Console) Feed(lines ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.input = append(c.input, lines...)
}

// Write emits a line on behalf of pid. The caller's predicate set must
// be fully resolved: output is observable, non-retractable source state.
func (c *Console) Write(pid ids.PID, preds *predicate.Set, line string) error {
	if preds != nil && preds.Unresolved() {
		return fmt.Errorf("%w: %v write with %v", ErrSpeculative, pid, preds)
	}
	c.mu.Lock()
	c.output = append(c.output, line)
	c.mu.Unlock()
	return nil
}

// Read returns input line index (0-based). The first read of an index
// consumes from the input queue and buffers the result; later reads of
// the same index — from sibling timelines replaying the same logical
// input — return the buffered line without consuming. Speculative
// worlds MAY read (buffering makes it idempotent).
func (c *Console) Read(index int) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if index < 0 {
		return "", fmt.Errorf("device: negative read index %d", index)
	}
	for index >= len(c.reads) {
		if len(c.input) == 0 {
			return "", fmt.Errorf("%w: read %d", ErrNoInput, index)
		}
		c.reads = append(c.reads, c.input[0])
		c.input = c.input[1:]
	}
	return c.reads[index], nil
}

// Output returns a copy of the committed output lines.
func (c *Console) Output() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.output))
	copy(out, c.output)
	return out
}

// ReadsConsumed returns how many distinct input positions have been
// consumed (each exactly once, regardless of how many timelines read
// them).
func (c *Console) ReadsConsumed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.reads)
}

// FileStore is a sink: a set of named paged files. Speculative worlds
// access it through COW Views; exactly one view commits. It is safe for
// concurrent use.
type FileStore struct {
	mu    sync.Mutex
	store *page.Store
	files map[string]*mem.AddressSpace
}

// NewFileStore returns an empty file store over the given page store.
func NewFileStore(store *page.Store) *FileStore {
	return &FileStore{store: store, files: make(map[string]*mem.AddressSpace)}
}

// Create adds a zero-filled file of the given size. Creating an
// existing name fails.
func (fs *FileStore) Create(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, exists := fs.files[name]; exists {
		return fmt.Errorf("device: file %q exists", name)
	}
	fs.files[name] = mem.New(fs.store, size)
	return nil
}

// Names returns the file names (unordered).
func (fs *FileStore) Names() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	return out
}

// ReadAt reads from the committed contents of a file. The read holds
// the store's lock, as View and Commit do: an address space is not safe
// for concurrent use, and even a read fills its page caches.
func (fs *FileStore) ReadAt(name string, buf []byte, off int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("device: no file %q", name)
	}
	return f.ReadAt(buf, off)
}

// View forks a COW view of every file — the speculative world's private
// window onto the sink.
func (fs *FileStore) View() (*View, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	v := &View{fs: fs, files: make(map[string]*mem.AddressSpace, len(fs.files))}
	for name, f := range fs.files {
		fork, err := f.Fork()
		if err != nil {
			return nil, fmt.Errorf("view %q: %w", name, err)
		}
		v.files[name] = fork
	}
	return v, nil
}

// View is one world's private COW window onto a FileStore.
type View struct {
	fs       *FileStore
	files    map[string]*mem.AddressSpace
	finished bool
}

// ReadAt reads from the view's version of a file.
func (v *View) ReadAt(name string, buf []byte, off int64) error {
	f, ok := v.files[name]
	if !ok {
		return fmt.Errorf("device: no file %q in view", name)
	}
	return f.ReadAt(buf, off)
}

// WriteAt writes to the view's private copy (COW).
func (v *View) WriteAt(name string, buf []byte, off int64) error {
	f, ok := v.files[name]
	if !ok {
		return fmt.Errorf("device: no file %q in view", name)
	}
	return f.WriteAt(buf, off)
}

// Commit atomically publishes the view's file versions as the store's
// committed contents. The view is dead afterwards. The caller must hold
// the commit right (the block's arbiter grants it at most once).
func (v *View) Commit() error {
	if v.finished {
		return errors.New("device: view already finished")
	}
	v.fs.mu.Lock()
	defer v.fs.mu.Unlock()
	for name, f := range v.files {
		if err := v.fs.files[name].Adopt(f); err != nil {
			return fmt.Errorf("commit %q: %w", name, err)
		}
	}
	v.finished = true
	return nil
}

// Discard drops the view's private pages (sibling elimination). The
// view is dead afterwards. Discard is idempotent.
func (v *View) Discard() {
	if v.finished {
		return
	}
	for _, f := range v.files {
		f.Discard()
	}
	v.finished = true
}
