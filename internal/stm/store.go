// Package stm is a software-transactional-memory workload over the
// multiple-worlds message layer: a shared store of sink pages lives in
// a server world (core.SpawnServer), and the alternatives of a block
// read and write it by message. Because each alternative runs under
// "I complete, my siblings don't" assumptions, the first operation an
// unresolved alternative sends forces the store to split into an
// assume-copy and a deny-copy (§3.4.2); conflicting sibling writes
// land in disjoint copies, and the commit cascade eliminates every
// copy whose assumptions were contradicted. The store that survives a
// block therefore holds exactly the winner's writes — the
// serializability argument is the message layer itself.
//
// The package is real-mode only (reads carry wall-clock timeouts).
package stm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"altrun/internal/core"
	"altrun/internal/ids"
	"altrun/internal/msg"
)

// ErrReadTimeout is returned when no matching reply arrives in time —
// with a healthy store it means the reader's world was cancelled (its
// copy of the store was eliminated mid-read).
var ErrReadTimeout = errors.New("stm: read reply timed out")

// Store operations travel as message data. ReadReq carries a reply PID
// because the store must answer the asking world, wherever it sits in
// the speculation tree.
type (
	// ReadReq asks for the value of one key; the reply goes to Reply.
	ReadReq struct {
		Key   int
		Seq   uint64
		Reply ids.PID
	}
	// ReadReply answers a ReadReq (Seq matches the request).
	ReadReply struct {
		Key int
		Seq uint64
		Val uint64
	}
	// WriteReq sets one key. Fire-and-forget: per-receiver FIFO order
	// makes a later read from the same world observe it.
	WriteReq struct {
		Key int
		Val uint64
	}
)

// Store is a handle on one store server world. The PID outlives any
// split: sends fan out to the live copies (its children in the process
// table, see core.Runtime.Copies).
type Store struct {
	rt   *core.Runtime
	pid  ids.PID
	keys int
	seq  atomic.Uint64
}

// NewStore spawns a store server holding keys uint64 sink pages, all
// zero. All durable state lives in the server world's address space,
// which is exactly what makes the store splittable.
func NewStore(rt *core.Runtime, name string, keys int) *Store {
	w := rt.SpawnServer(name, int64(keys)*8, storeHandler)
	return &Store{rt: rt, pid: w.PID(), keys: keys}
}

// PID returns the store's stable address.
func (s *Store) PID() ids.PID { return s.pid }

// Keys returns the number of sink pages.
func (s *Store) Keys() int { return s.keys }

func storeHandler(w *core.World, m msg.Message) {
	switch op := m.Data.(type) {
	case WriteReq:
		_ = w.WriteUint64(int64(op.Key)*8, op.Val)
	case ReadReq:
		v, err := w.ReadUint64(int64(op.Key) * 8)
		if err != nil {
			return
		}
		// The reply fails if the asker was eliminated while the request
		// was queued; a dead world's read needs no answer.
		_ = w.Send(op.Reply, ReadReply{Key: op.Key, Seq: op.Seq, Val: v})
	}
}

// Write sends a write on behalf of w. The receiving decision (accept /
// ignore / split) is per store copy: an unresolved writer's first
// operation splits the store.
func (s *Store) Write(w *core.World, key int, val uint64) error {
	if key < 0 || key >= s.keys {
		return fmt.Errorf("stm: write key %d out of range [0,%d)", key, s.keys)
	}
	return w.Send(s.pid, WriteReq{Key: key, Val: val})
}

// Read round-trips a key's value through the store copy consistent
// with w's assumptions. Exactly one live copy can answer: every other
// copy's assumptions conflict with the reader's on some sibling fate,
// so they ignore the request. Stale replies (from an earlier timed-out
// read) are discarded by sequence number.
func (s *Store) Read(w *core.World, key int, timeout time.Duration) (uint64, error) {
	if key < 0 || key >= s.keys {
		return 0, fmt.Errorf("stm: read key %d out of range [0,%d)", key, s.keys)
	}
	seq := s.seq.Add(1)
	if err := w.Send(s.pid, ReadReq{Key: key, Seq: seq, Reply: w.PID()}); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(timeout)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return 0, ErrReadTimeout
		}
		m, ok := w.Recv(remain)
		if !ok {
			return 0, ErrReadTimeout
		}
		if r, isReply := m.Data.(ReadReply); isReply && r.Seq == seq {
			return r.Val, nil
		}
	}
}

// ReadAll reads every key through w — the settled-state read a block's
// parent performs after commit, when the surviving copy's assumptions
// have fully resolved and both directions of the round-trip are plain
// accepts.
func (s *Store) ReadAll(w *core.World, timeout time.Duration) ([]uint64, error) {
	out := make([]uint64, s.keys)
	for k := range out {
		v, err := s.Read(w, k, timeout)
		if err != nil {
			return nil, fmt.Errorf("stm: read-all key %d: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// Seed writes initial values (index = key) from w and fences with a
// read, so every page is in place before any alternative's operation
// can be queued behind the seeds.
func (s *Store) Seed(w *core.World, vals []uint64, timeout time.Duration) error {
	if len(vals) > s.keys {
		return fmt.Errorf("stm: %d seed values for %d keys", len(vals), s.keys)
	}
	for k, v := range vals {
		if err := s.Write(w, k, v); err != nil {
			return err
		}
	}
	if len(vals) == 0 {
		return nil
	}
	got, err := s.Read(w, len(vals)-1, timeout)
	if err != nil {
		return err
	}
	if got != vals[len(vals)-1] {
		return fmt.Errorf("stm: seed fence read %d, want %d", got, vals[len(vals)-1])
	}
	return nil
}

// closeRetries bounds Close's settle loop. Splits during teardown can
// only come from still-running alternatives; a settled block needs one
// pass.
const closeRetries = 16

// Close shuts down every live copy of the store. Shutdown is not an
// elimination — no fates resolve — so a copy that has forked between the
// snapshot and the kill leaves fresh copies behind; the loop re-snapshots
// until no copy is live. (A copy shut down in the middle of splitting
// ends the copies it was making itself.)
func (s *Store) Close() error {
	for i := 0; i < closeRetries; i++ {
		copies := s.rt.Copies(s.pid)
		if len(copies) == 0 {
			return nil
		}
		for _, c := range copies {
			s.rt.Shutdown(c)
		}
	}
	if left := s.rt.Copies(s.pid); len(left) > 0 {
		return fmt.Errorf("stm: %d store copies still live after %d close passes", len(left), closeRetries)
	}
	return nil
}
