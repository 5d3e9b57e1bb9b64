package stm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"altrun/internal/core"
)

// ErrTxnAbort is the injected-abort failure: the alternative completed
// its operations and then refused to commit, modelling a transaction
// that fails validation.
var ErrTxnAbort = errors.New("stm: injected transaction abort")

// Config describes one STM transaction block: Alts mutually exclusive
// implementations of the same transaction race over Keys shared sink
// pages, each running Ops operations with the given read fraction and
// key distribution. The whole block is deterministic in Seed, which is
// what lets a sequential oracle replay the winner.
type Config struct {
	// Keys is the number of shared sink pages (the contention domain).
	Keys int
	// Alts is the number of alternatives racing per block.
	Alts int
	// Ops is the transaction length: operations per alternative.
	Ops int
	// ReadFrac is the fraction of operations that are reads in [0,1].
	ReadFrac float64
	// Zipf skews key choice toward hot keys when > 1 (the zipf s
	// parameter); <= 1 picks keys uniformly.
	Zipf float64
	// AbortEvery injects a post-operations abort into every k-th
	// alternative (alternatives Abort-1, 2*AbortEvery-1, ...); 0 never
	// aborts.
	AbortEvery int
	// Seed drives every random choice in the block.
	Seed int64
	// ReadTimeout bounds each read round-trip (default 2s).
	ReadTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Keys <= 0 {
		c.Keys = 16
	}
	if c.Alts <= 0 {
		c.Alts = 4
	}
	if c.Ops <= 0 {
		c.Ops = 8
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * time.Second
	}
	return c
}

// winnerKey is the reserved extra page each alternative stamps with its
// own index as its final write; the surviving value names the block's
// winner, so the oracle can be checked from store state alone.
func (c Config) winnerKey() int { return c.Keys }

// StoreKeys is the page count a store for this config needs: the
// contended keys plus the reserved winner page.
func (c Config) StoreKeys() int { return c.Keys + 1 }

// Op is one transactional operation.
type Op struct {
	// Read distinguishes reads from writes.
	Read bool
	// Key is the sink page the operation touches.
	Key int
	// Val is the value written (writes only).
	Val uint64
}

// rngPool recycles generators: a math/rand source is 4.9 KB, and a block
// asks for one per alternative it runs and one for its initial image.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seededRand returns a pooled generator in exactly the state
// rand.New(rand.NewSource(seed)) starts in (Seed rebuilds the whole
// source and drops buffered bytes). Return it with rngPool.Put.
func seededRand(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// GenOps returns alternative alt's operation sequence. Deterministic:
// the same (cfg, alt) always yields the same sequence, for both the
// racing world and the oracle's replay.
func GenOps(cfg Config, alt int) []Op {
	cfg = cfg.withDefaults()
	rng := seededRand(cfg.Seed*1_000_003 + int64(alt)*7919 + 1)
	defer rngPool.Put(rng)
	var zipf *rand.Zipf
	if cfg.Zipf > 1 && cfg.Keys > 1 {
		zipf = rand.NewZipf(rng, cfg.Zipf, 1, uint64(cfg.Keys-1))
	}
	ops := make([]Op, cfg.Ops)
	for i := range ops {
		var key int
		if zipf != nil {
			key = int(zipf.Uint64())
		} else {
			key = rng.Intn(cfg.Keys)
		}
		if rng.Float64() < cfg.ReadFrac {
			ops[i] = Op{Read: true, Key: key}
		} else {
			ops[i] = Op{Key: key, Val: rng.Uint64()}
		}
	}
	return ops
}

// InitVals returns the deterministic pre-block page image (winner page
// zero: no winner yet).
func InitVals(cfg Config) []uint64 {
	cfg = cfg.withDefaults()
	rng := seededRand(cfg.Seed ^ 0x5eed)
	defer rngPool.Put(rng)
	vals := make([]uint64, cfg.StoreKeys())
	for k := 0; k < cfg.Keys; k++ {
		vals[k] = rng.Uint64()
	}
	return vals
}

// aborts reports whether alternative alt is configured to abort.
func (c Config) aborts(alt int) bool {
	return c.AbortEvery > 0 && (alt+1)%c.AbortEvery == 0
}

// Block is one transaction block's inputs, each derived from Seed once:
// the initial image its store is seeded with, and every alternative's
// op stream. Generating a stream re-seeds a 4.9 KB generator, so the
// body generates its stream, the guard reads it back, and the block's
// check replays the winner's recorded stream over the recorded image
// instead of generating either again.
//
// ops[i] is written by alternative i's body and read by its guard, on
// the body's goroutine; CheckFinal reads the winner's slot after the
// winner's commit report, which orders it after the write. Losers may
// still be writing their own slots then: every slot has one writer.
type Block struct {
	cfg  Config
	init []uint64
	ops  [][]Op
}

// NewBlock returns the block for cfg with nothing generated yet.
func NewBlock(cfg Config) *Block {
	cfg = cfg.withDefaults()
	return &Block{cfg: cfg, ops: make([][]Op, cfg.Alts)}
}

// InitVals returns InitVals(cfg) and keeps it as the image CheckFinal
// replays over. Call it from the goroutine that runs CheckFinal (the
// job's Init and Extract share the root's).
func (b *Block) InitVals() []uint64 {
	b.init = InitVals(b.cfg)
	return b.init
}

// Ops returns the stream alternative alt's body recorded — the one its
// guard and CheckFinal read — or nil if the body has not run. Call it
// where the block reads the slot: on the alternative's goroutine, or
// after its commit report.
func (b *Block) Ops(alt int) []Op { return b.ops[alt] }

// opsOf returns alternative alt's recorded stream, or generates it when
// the alternative's body has not recorded one.
func (b *Block) opsOf(alt int) []Op {
	if ops := b.ops[alt]; ops != nil {
		return ops
	}
	return GenOps(b.cfg, alt)
}

// run executes alternative alt's transaction against the store from w:
// the generated operation stream, recorded in the block, then the
// winner stamp. Returns ErrTxnAbort for abort-injected alternatives.
func (b *Block) run(s *Store, w *core.World, alt int) error {
	cfg := b.cfg
	ops := GenOps(cfg, alt)
	b.ops[alt] = ops
	for i, op := range ops {
		if w.Cancelled() {
			return fmt.Errorf("stm: alt %d cancelled at op %d", alt, i)
		}
		if op.Read {
			if _, err := s.Read(w, op.Key, cfg.ReadTimeout); err != nil {
				return fmt.Errorf("stm: alt %d op %d: %w", alt, i, err)
			}
		} else if err := s.Write(w, op.Key, op.Val); err != nil {
			return fmt.Errorf("stm: alt %d op %d: %w", alt, i, err)
		}
	}
	if cfg.aborts(alt) {
		return ErrTxnAbort
	}
	return s.Write(w, cfg.winnerKey(), uint64(alt)+1)
}

// validate is the alternative's guard: read-your-writes through the
// store copy consistent with this world. Every key the transaction
// wrote — and the winner stamp — must read back as the last value this
// alternative wrote; a mismatch means the message layer routed a
// sibling's conflicting write into our copy.
func (b *Block) validate(s *Store, w *core.World, alt int) (bool, error) {
	cfg := b.cfg
	last := make(map[int]uint64)
	for _, op := range b.opsOf(alt) {
		if !op.Read {
			last[op.Key] = op.Val
		}
	}
	last[cfg.winnerKey()] = uint64(alt) + 1
	for key, want := range last {
		got, err := s.Read(w, key, cfg.ReadTimeout)
		if err != nil {
			return false, err
		}
		if got != want {
			return false, fmt.Errorf("stm: alt %d key %d read %d, want own write %d", alt, key, got, want)
		}
	}
	return true, nil
}

// Alts builds the block's alternatives over a store (created by the
// job's Init; the pointer indirection lets the closure outlive job
// construction).
func (b *Block) Alts(storep **Store) []core.Alt {
	alts := make([]core.Alt, b.cfg.Alts)
	for i := range alts {
		alt := i
		alts[i] = core.Alt{
			Name:  fmt.Sprintf("txn-%d", alt+1),
			Body:  func(w *core.World) error { return b.run(*storep, w, alt) },
			Guard: func(w *core.World) (bool, error) { return b.validate(*storep, w, alt) },
		}
	}
	return alts
}

// CheckFinal verifies a committed store image against the sequential
// oracle: the winner page names the winner, and every contended page
// holds exactly the value the winner's writes, replayed over the initial
// image, produce — what no-observable-losers demands of the surviving
// store copy. It replays the block's recorded inputs (the image InitVals
// kept, the winner's recorded stream) and generates afresh only what was
// never recorded. Returns the winner index.
func (b *Block) CheckFinal(final []uint64) (int, error) {
	cfg := b.cfg
	if len(final) != cfg.StoreKeys() {
		return -1, fmt.Errorf("stm: final image has %d pages, want %d", len(final), cfg.StoreKeys())
	}
	stamp := final[cfg.winnerKey()]
	if stamp == 0 || stamp > uint64(cfg.Alts) {
		return -1, fmt.Errorf("stm: winner stamp %d out of range [1,%d]", stamp, cfg.Alts)
	}
	winner := int(stamp) - 1
	want := slices.Clone(b.init)
	if want == nil {
		want = InitVals(cfg)
	}
	for _, op := range b.opsOf(winner) {
		if !op.Read {
			want[op.Key] = op.Val
		}
	}
	want[cfg.winnerKey()] = stamp
	for k := range want {
		if final[k] != want[k] {
			return -1, fmt.Errorf("stm: page %d holds %d, oracle wants %d (winner %d): a loser's write survived",
				k, final[k], want[k], winner)
		}
	}
	return winner, nil
}

// CheckFinal is Block.CheckFinal with every input regenerated from
// cfg.Seed: the oracle that trusts nothing a block recorded.
func CheckFinal(cfg Config, final []uint64) (int, error) {
	return NewBlock(cfg).CheckFinal(final)
}
