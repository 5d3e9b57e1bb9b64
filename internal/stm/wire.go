package stm

import (
	"fmt"
	"math"
)

// TxnSpec is one STM transaction job: everything needed to rebuild the
// block deterministically. altserved builds it from a submit request,
// on the node the request was sent to or on the peer it was forwarded
// to.
type TxnSpec struct {
	// TxnID distinguishes concurrent blocks in names and traces.
	TxnID int64
	// Keys, Alts, Ops, ReadFrac, Zipf, AbortEvery, Seed mirror Config.
	Keys       int
	Alts       int
	Ops        int
	ReadFrac   float64
	Zipf       float64
	AbortEvery int
	Seed       int64
	// DeadlineMS bounds the job end to end (0 = server default).
	DeadlineMS int64
	// MaxDegree caps concurrent alternatives; 1 is the sequential
	// fall-through baseline.
	MaxDegree int
}

// Config converts the spec into a block config.
func (t TxnSpec) Config() Config {
	return Config{
		Keys:       t.Keys,
		Alts:       t.Alts,
		Ops:        t.Ops,
		ReadFrac:   t.ReadFrac,
		Zipf:       t.Zipf,
		AbortEvery: t.AbortEvery,
		Seed:       t.Seed,
	}.withDefaults()
}

// Bounds on a spec from outside the process (an HTTP request or a
// forwarded one): a block allocates per alternative, per operation and per
// key, so each count is capped before anything is built from it.
const (
	// MaxAlts matches serve's per-kind history cap (serve.DefaultMaxAlts).
	MaxAlts = 64
	// MaxOps bounds one alternative's transaction length.
	MaxOps = 1024
	// MaxKeys bounds the store's contended sink pages.
	MaxKeys = 4096
)

// Validate reports the first count outside [0, cap], or the first
// non-finite fraction, naming its request field. Zero keeps Config's
// default. A +Inf zipf would spin math/rand's Zipf sampler forever,
// before the body's first cancellation check.
func (t TxnSpec) Validate() error {
	for _, f := range []struct {
		name     string
		val, cap int
	}{
		{"keys", t.Keys, MaxKeys},
		{"alts", t.Alts, MaxAlts},
		{"ops", t.Ops, MaxOps},
	} {
		if f.val < 0 || f.val > f.cap {
			return fmt.Errorf("stm spec: %s %d out of range [0, %d]", f.name, f.val, f.cap)
		}
	}
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"read_frac", t.ReadFrac},
		{"zipf", t.Zipf},
	} {
		if math.IsNaN(f.val) || math.IsInf(f.val, 0) {
			return fmt.Errorf("stm spec: %s %v is not finite", f.name, f.val)
		}
	}
	return nil
}
