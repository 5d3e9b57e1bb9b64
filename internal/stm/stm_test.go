package stm

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"altrun/internal/core"
	"altrun/internal/msg"
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
	elimBefore := rt.SelStats().Eliminations
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
	if elimAfter := rt.SelStats().Eliminations; elimAfter <= elimBefore {
		t.Fatalf("no eliminations: %d -> %d (the commit must eliminate the store copies that assumed a loser)",
			elimBefore, elimAfter)
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

func TestTxnSpecValidate(t *testing.T) {
	ok := []TxnSpec{
		{},
		{Keys: 8, Alts: 4, Ops: 10, ReadFrac: 0.5, Zipf: 1.2},
		{Keys: MaxKeys, Alts: MaxAlts, Ops: MaxOps},
	}
	for _, s := range ok {
		if err := s.Validate(); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
	}
	for field, s := range map[string]TxnSpec{
		"alts": {Alts: 1_000_000_000},
		"ops":  {Ops: MaxOps + 1},
		"keys": {Keys: -1},
		// A +Inf zipf never leaves math/rand's Zipf sampler.
		"zipf":      {Zipf: math.Inf(1)},
		"read_frac": {ReadFrac: math.NaN()},
	} {
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("%+v: error %v, want one naming %q", s, err, field)
		}
	}
}

// TestGuardReadOrderDeterministic: a guard reads its writes back in key
// order, winner page last, so two guards over the same block make the
// same round-trips in the same order — a seed replays them exactly.
func TestGuardReadOrderDeterministic(t *testing.T) {
	rt, root := newRoot(t)
	cfg := Config{Keys: 64, Alts: 2, Ops: 64, ReadFrac: 0, Seed: 5}.withDefaults()
	var (
		mu    sync.Mutex
		reads []int
	)
	srv := rt.SpawnServer("recording-store", int64(cfg.StoreKeys())*8, func(w *core.World, m msg.Message) {
		if r, ok := m.Data.(ReadReq); ok {
			mu.Lock()
			reads = append(reads, r.Key)
			mu.Unlock()
		}
		storeHandler(w, m)
	})
	store := &Store{rt: rt, srv: srv, keys: cfg.StoreKeys()}
	b := NewBlock(cfg)
	const alt = 1
	if err := b.run(store, root, alt); err != nil {
		t.Fatalf("run: %v", err)
	}
	var seqs [2][]int
	for i := range seqs {
		mu.Lock()
		reads = nil
		mu.Unlock()
		if ok, err := b.validate(store, root, alt); !ok || err != nil {
			t.Fatalf("guard %d: ok=%v err=%v", i, ok, err)
		}
		mu.Lock()
		seqs[i] = reads
		mu.Unlock()
	}
	if !slices.Equal(seqs[0], seqs[1]) {
		t.Fatalf("two guards over one block read different key sequences:\n%v\n%v", seqs[0], seqs[1])
	}
	keys := seqs[0]
	if len(keys) < 16 || !slices.IsSorted(keys) || keys[len(keys)-1] != cfg.winnerKey() {
		t.Fatalf("guard read %v: want the written keys ascending, then the winner page %d", keys, cfg.winnerKey())
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
