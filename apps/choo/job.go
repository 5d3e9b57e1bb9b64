package choo

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"altrun/internal/core"
	"altrun/internal/serve"
	"altrun/internal/stm"
)

// Kind is the job-history bucket for choo programs.
const Kind = "choo"

// Result is the extracted outcome of a completed program.
type Result struct {
	// Vars are the final variable values, read from the surviving store
	// copy.
	Vars map[string]int64 `json:"vars"`
	// Prints is the program's console output in order — committed
	// procedures' lines only, losers' prints were never performed.
	Prints []string `json:"prints"`
}

// JobOptions tunes a compiled job.
type JobOptions struct {
	// MaxDegree caps concurrent alternatives (pool default if 0).
	MaxDegree int
	// Deadline bounds the job end to end (pool default if 0).
	Deadline time.Duration
	// ReadTimeout bounds each variable read (default 2s).
	ReadTimeout time.Duration
	// MaxSteps bounds the evaluation steps along one execution path
	// (default DefaultMaxSteps; see Machine.MaxSteps).
	MaxSteps int64
}

// jobSeq makes each compiled job's store name and print prefix unique
// on the runtime, so concurrent jobs sharing the console can tell
// their output apart.
var jobSeq atomic.Int64

// splitProgram cuts the top-level statement list at its first choo
// group: prefix runs before the block, the group becomes the block's
// alternatives, suffix runs after the commit.
func splitProgram(prog *Program) (prefix []Stmt, group *Choo, suffix []Stmt) {
	for i, s := range prog.Stmts {
		if c, isChoo := s.(*Choo); isChoo {
			return prog.Stmts[:i], c, prog.Stmts[i+1:]
		}
	}
	return nil, nil, nil
}

// CompileJob lowers a resolved program to a serve job.
//
// The lowering mirrors the pool's own job shape: Init spawns the
// program's variable store and executes the statements before the
// first top-level choo group on the root world; the group's procedures
// become the job's alternatives, racing over the store through the
// message layer; Extract executes the remaining statements on the
// committed root (further choo groups become nested blocks via
// root.RunAlt), then reads back every variable and collects the
// program's print lines from the console. A program with no top-level
// choo group runs whole as a single "main" alternative. Cleanup
// retires the store's world tree on every terminal path.
func CompileJob(name string, prog *Program, opt JobOptions) serve.Job {
	id := jobSeq.Add(1)
	prefix, group, suffix := splitProgram(prog)
	m := &Machine{
		Prog:        prog,
		ReadTimeout: opt.ReadTimeout,
		MaxSteps:    opt.MaxSteps,
		PrintPrefix: fmt.Sprintf("choo#%d|", id),
	}
	var alts []core.Alt
	if group != nil {
		alts = make([]core.Alt, len(group.Procs))
		for i, pn := range group.Procs {
			d := prog.Procs[pn]
			alts[i] = core.Alt{
				Name: pn,
				Body: func(cw *core.World) error { return m.execProc(cw, d) },
			}
		}
	} else {
		alts = []core.Alt{{
			Name: "main",
			Body: func(cw *core.World) error { return m.Exec(cw, prog.Stmts) },
		}}
	}
	keys := StoreKeys(prog)
	return serve.Job{
		Kind:      Kind,
		Name:      name,
		Alts:      alts,
		MaxDegree: opt.MaxDegree,
		Deadline:  opt.Deadline,
		Init: func(w *core.World) error {
			m.Store = stm.NewStore(w.Runtime(), fmt.Sprintf("choo-store#%d", id), keys)
			// Seeding zeros is a liveness fence: a failure here surfaces
			// as a clean init error instead of a read timeout mid-block.
			if err := m.Store.Seed(w, make([]uint64, keys), m.timeout()); err != nil {
				return err
			}
			return m.Exec(w, prefix)
		},
		Extract: func(w *core.World) (any, error) {
			if err := m.Exec(w, suffix); err != nil {
				return nil, err
			}
			vars, err := m.ReadVars(w)
			if err != nil {
				return nil, err
			}
			prints := []string{}
			for _, line := range w.Runtime().Console().Output() {
				if strings.HasPrefix(line, m.PrintPrefix) {
					prints = append(prints, strings.TrimPrefix(line, m.PrintPrefix))
				}
			}
			return Result{Vars: vars, Prints: prints}, nil
		},
		Cleanup: func(*core.World) {
			if m.Store != nil {
				_ = m.Store.Close()
			}
		},
	}
}
