package experiments

import (
	"bytes"
	"fmt"
	"time"

	"altrun/internal/core"
	"altrun/internal/ids"
)

// E6: Figures 1 and 2 — the construct and its concurrent execution.
// This experiment executes an alternative block with guards (two
// satisfiable, one failing) and reports the lifecycle event counts that
// Figure 2 depicts: spawn, guard outcomes, exactly one commit, sibling
// elimination — plus the transparency check (parent state equals the
// winner's sequential result).

// E6Result summarizes the execution transcript.
type E6Result struct {
	Winner       string
	Spawns       int
	GuardPasses  int
	GuardFails   int
	Commits      int
	TooLate      int
	Eliminations int
	Transparent  bool
	Elapsed      time.Duration
}

// e6Probe counts the block's lifecycle events. The simulator runs one
// process at a time, so the counts need no lock.
type e6Probe struct {
	spawns, commits int
	exits           map[string]int // by outcome
}

func (p *e6Probe) ChildSpawned(ids.PID, string, time.Time) { p.spawns++ }
func (p *e6Probe) SetupDone(time.Time, int)                {}
func (p *e6Probe) ChildFault(ids.PID, int64, time.Time)    {}
func (p *e6Probe) Committed(ids.PID, time.Time)            { p.commits++ }
func (p *e6Probe) ChildExit(_ ids.PID, outcome string, _ time.Time, _ int64) {
	p.exits[outcome]++
}

// E6 runs the Figure-1 block concurrently and audits the transcript.
func E6() (E6Result, error) {
	rt := core.NewSim(core.SimConfig{Profile: zeroProfile(4096)})
	probe := &e6Probe{exits: map[string]int{}}
	var out E6Result
	var failure error
	rt.GoRoot("root", 1<<16, func(w *core.World) {
		mk := func(name string, d time.Duration, guardOK bool, payload string) core.Alt {
			return core.Alt{
				Name: name,
				Body: func(cw *core.World) error {
					cw.Compute(d)
					return cw.WriteAt([]byte(payload), 0)
				},
				Guard: func(cw *core.World) (bool, error) { return guardOK, nil },
			}
		}
		res, err := w.RunAlt(core.Options{SyncElimination: true, Probe: probe},
			mk("method1", 8*time.Second, true, "m1-result"),
			mk("method2", 3*time.Second, false, "m2-result"), // guard fails
			mk("method3", 5*time.Second, true, "m3-result"),
			mk("method4", 20*time.Second, true, "m4-result"),
		)
		if err != nil {
			failure = err
			return
		}
		out.Winner = res.Name
		out.Elapsed = res.Elapsed
		got := make([]byte, 9)
		if err := w.ReadAt(got, 0); err != nil {
			failure = err
			return
		}
		out.Transparent = bytes.Equal(got, []byte("m3-result"))
	})
	if err := rt.Run(); err != nil {
		return out, err
	}
	if failure != nil {
		return out, failure
	}
	out.Spawns = probe.spawns
	// A guard that passed leaves its child either the winner or too
	// late; one that failed (body error included) leaves it failed, or
	// cancelled when an elimination cut its body short.
	out.GuardPasses = probe.exits[core.OutcomeWin] + probe.exits[core.OutcomeTooLate]
	out.GuardFails = probe.exits[core.OutcomeGuardFail] + probe.exits[core.OutcomeCancelled]
	out.Commits = probe.commits
	out.TooLate = probe.exits[core.OutcomeTooLate]
	out.Eliminations = int(rt.SelStats().Eliminations)
	return out, nil
}

// Format renders the transcript summary.
func (r E6Result) Format() string {
	rows := [][]string{
		{"winner", r.Winner},
		{"elapsed", fmtDur(r.Elapsed)},
		{"spawns", fmt.Sprintf("%d", r.Spawns)},
		{"guard passes", fmt.Sprintf("%d", r.GuardPasses)},
		{"guard fails", fmt.Sprintf("%d", r.GuardFails)},
		{"commits", fmt.Sprintf("%d", r.Commits)},
		{"too-late", fmt.Sprintf("%d", r.TooLate)},
		{"eliminations", fmt.Sprintf("%d", r.Eliminations)},
		{"transparent", fmt.Sprintf("%v", r.Transparent)},
	}
	return "E6 — Figures 1+2: concurrent execution of an alternative block (4 methods, one failing guard)\n" +
		table([]string{"property", "value"}, rows)
}
