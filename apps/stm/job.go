// Package stm adapts the contended-store STM workload
// (internal/stm) into serve jobs: one job is one transaction block
// whose alternatives race over a private store server through the
// multiple-worlds message layer. It is the third apps adapter (after
// recovery blocks and OR-Prolog) and the first whose alternatives
// share mutable state — the workload that makes receiver splitting and
// contradiction cascades part of the serving hot path.
package stm

import (
	"fmt"
	"time"

	"altrun/internal/core"
	"altrun/internal/serve"
	istm "altrun/internal/stm"
)

// Kind is the job-history bucket for STM transaction blocks.
const Kind = "stm"

// Result is the extracted outcome of a committed transaction block.
type Result struct {
	// Winner is the committed alternative's index.
	Winner int `json:"winner"`
	// Pages is the final image of the contended sink pages (the
	// reserved winner page excluded).
	Pages []uint64 `json:"pages"`
}

// JobFromSpec builds a serve.Job from a wire spec. Init spawns and
// seeds the block's private store, the alternatives run the generated
// transactions against it, Extract replays the sequential oracle over
// the surviving copy's pages, and Cleanup retires the store's world
// tree on every terminal path. Each input is generated once per job:
// Extract replays the winner's recorded stream over the image Init
// seeded (istm.Block).
//
// The store is private to the job on purpose: store copies accumulate
// assumptions about the fates of the worlds that message them, and a
// reply carrying assumptions about another block's siblings could
// never be delivered to an alternative (only servers split). One store
// per block keeps every predicate in a reply implied by its reader.
func JobFromSpec(spec istm.TxnSpec) serve.Job {
	return jobFromBlock(spec, istm.NewBlock(spec.Config()))
}

// jobFromBlock is JobFromSpec over a given block, so tests can look at
// what the job recorded.
func jobFromBlock(spec istm.TxnSpec, block *istm.Block) serve.Job {
	cfg := spec.Config()
	name := fmt.Sprintf("txn-%d", spec.TxnID)
	var store *istm.Store
	return serve.Job{
		Kind:      Kind,
		Name:      name,
		Alts:      block.Alts(&store),
		MaxDegree: spec.MaxDegree,
		Deadline:  time.Duration(spec.DeadlineMS) * time.Millisecond,
		Init: func(w *core.World) error {
			store = istm.NewStore(w.Runtime(), "store:"+name, cfg.StoreKeys())
			return store.Seed(w, block.InitVals(), cfg.ReadTimeout)
		},
		Extract: func(w *core.World) (any, error) {
			final, err := store.ReadAll(w, cfg.ReadTimeout)
			if err != nil {
				return nil, err
			}
			winner, err := block.CheckFinal(final)
			if err != nil {
				return nil, err
			}
			return Result{Winner: winner, Pages: final[:cfg.Keys]}, nil
		},
		Cleanup: func(*core.World) {
			if store != nil {
				_ = store.Close()
			}
		},
	}
}
