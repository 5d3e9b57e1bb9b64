package stm

import (
	"errors"
	"testing"
	"time"

	"altrun/internal/core"
)

// newRoot builds a real-mode runtime and a root world for driving
// blocks from the test goroutine.
func newRoot(t *testing.T) (*core.Runtime, *core.World) {
	t.Helper()
	rt := core.New(core.Config{})
	root, err := rt.NewRootWorld("stm-test-root", 4<<10)
	if err != nil {
		t.Fatalf("NewRootWorld: %v", err)
	}
	t.Cleanup(func() { rt.Shutdown(root) })
	return rt, root
}

func TestGenOpsDeterministic(t *testing.T) {
	cfg := Config{Keys: 8, Alts: 3, Ops: 32, ReadFrac: 0.5, Zipf: 1.2, Seed: 42}
	a := GenOps(cfg, 1)
	b := GenOps(cfg, 1)
	if len(a) != 32 {
		t.Fatalf("got %d ops, want 32", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between identical generations: %+v vs %+v", i, a[i], b[i])
		}
	}
	other := GenOps(cfg, 2)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("alternatives 1 and 2 generated identical op streams")
	}
}

func TestZipfSkewsKeys(t *testing.T) {
	hot := Config{Keys: 64, Alts: 1, Ops: 4096, ReadFrac: 0, Zipf: 1.8, Seed: 7}
	counts := make([]int, hot.Keys)
	for _, op := range GenOps(hot, 0) {
		counts[op.Key]++
	}
	if counts[0] < 4096/4 {
		t.Fatalf("zipf s=1.8: hottest key got %d/4096 ops, want a hot-key concentration", counts[0])
	}
}

// TestBlockCommitMatchesOracle is the package's core claim: alternatives
// racing conflicting writes through the store split it, and the
// surviving copy holds exactly the winner's sequential image.
func TestBlockCommitMatchesOracle(t *testing.T) {
	rt, root := newRoot(t)
	cfg := Config{Keys: 4, Alts: 3, Ops: 6, ReadFrac: 0.3, Seed: 11}.withDefaults()

	store := NewStore(rt, "store", cfg.StoreKeys())
	if err := store.Seed(root, InitVals(cfg), time.Second); err != nil {
		t.Fatalf("seed: %v", err)
	}

	before := rt.MsgStats()
	var storep = store
	res, err := root.RunAlt(core.Options{SyncElimination: true}, NewBlock(cfg).Alts(&storep)...)
	if err != nil {
		t.Fatalf("RunAlt: %v", err)
	}

	final, err := store.ReadAll(root, time.Second)
	if err != nil {
		t.Fatalf("ReadAll after commit: %v", err)
	}
	winner, err := CheckFinal(cfg, final)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if winner != res.Index {
		t.Fatalf("store names winner %d, block committed %d", winner, res.Index)
	}

	after := rt.MsgStats()
	if after.Splits <= before.Splits {
		t.Fatalf("no receiver splits: %d -> %d (contending siblings must split the store)",
			before.Splits, after.Splits)
	}
	if after.Ignored <= before.Ignored {
		t.Fatalf("no ignored messages: %d -> %d (losers' writes must be ignored by conflicting copies)",
			before.Ignored, after.Ignored)
	}

	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if left := rt.Copies(store.PID()); len(left) != 0 {
		t.Fatalf("%d store copies live after Close", len(left))
	}
}

// TestAllAbortFailsBlock: abort injection on every alternative fails the
// block and leaves the store at its initial image.
func TestAllAbortFailsBlock(t *testing.T) {
	rt, root := newRoot(t)
	cfg := Config{Keys: 4, Alts: 2, Ops: 4, ReadFrac: 0, AbortEvery: 1, Seed: 3}.withDefaults()
	store := NewStore(rt, "store", cfg.StoreKeys())
	init := InitVals(cfg)
	if err := store.Seed(root, init, time.Second); err != nil {
		t.Fatalf("seed: %v", err)
	}
	var storep = store
	_, err := root.RunAlt(core.Options{SyncElimination: true}, NewBlock(cfg).Alts(&storep)...)
	if !errors.Is(err, core.ErrAllFailed) {
		t.Fatalf("RunAlt err = %v, want ErrAllFailed", err)
	}
	final, err := store.ReadAll(root, time.Second)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	for k, v := range final {
		if v != init[k] {
			t.Fatalf("page %d changed to %d after an all-abort block (want %d): aborted writes leaked", k, v, init[k])
		}
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSequentialDegreeOne: one alternative at a time still round-trips
// through the store (each wave splits once and resolves), the
// sequential fall-through baseline of the bench.
func TestSequentialDegreeOne(t *testing.T) {
	rt, root := newRoot(t)
	cfg := Config{Keys: 4, Alts: 1, Ops: 5, ReadFrac: 0.4, Seed: 9}.withDefaults()
	store := NewStore(rt, "store", cfg.StoreKeys())
	if err := store.Seed(root, InitVals(cfg), time.Second); err != nil {
		t.Fatalf("seed: %v", err)
	}
	var storep = store
	res, err := root.RunAlt(core.Options{SyncElimination: true}, NewBlock(cfg).Alts(&storep)...)
	if err != nil {
		t.Fatalf("RunAlt: %v", err)
	}
	final, err := store.ReadAll(root, time.Second)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if _, err := CheckFinal(cfg, final); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if res.Index != 0 {
		t.Fatalf("winner %d, want 0", res.Index)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
