package choo

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"altrun/internal/core"
	"altrun/internal/stm"
)

// ErrWhenRefused marks a procedure whose enabling condition evaluated
// false: its alternative fails, letting a sibling of the group win.
var ErrWhenRefused = errors.New("choo: when condition refused")

// ErrSteps marks a program that exhausted its step budget (the runtime
// stand-in for nontermination — Go cannot preempt a spinning world).
var ErrSteps = errors.New("choo: step budget exhausted")

// DefaultMaxSteps bounds the steps along one execution path.
const DefaultMaxSteps = 1 << 20

// stepsOff is where a world keeps its step count: word 0 of its own
// address space, which the machine uses for nothing else. A forked
// world starts from its parent's count and a commit adopts the
// winner's, so each world is charged the steps along its own path —
// the count Oracle charges — and never a sibling's.
const stepsOff = 0

// Machine executes a resolved program against an STM store. One
// machine serves every world of one program run. The program's
// variables live in the store, which is what makes procedures
// splittable contenders; each world's step count lives in its own
// address space (stepsOff).
type Machine struct {
	Prog *Program
	// Store holds the program's variables (key = index into Prog.Vars).
	Store *stm.Store
	// ReadTimeout bounds each variable read (default 2s).
	ReadTimeout time.Duration
	// MaxSteps bounds the evaluation steps along one execution path
	// (default DefaultMaxSteps): a world's own steps plus those of the
	// ancestors and committed winners it continues from, never a losing
	// sibling's.
	MaxSteps int64
	// PrintPrefix tags console lines so a job's extract can collect its
	// own output from the shared console device.
	PrintPrefix string
}

// StoreKeys returns the page count a store for prog needs (at least
// one: a store of zero pages is not addressable).
func StoreKeys(prog *Program) int {
	if len(prog.Vars) == 0 {
		return 1
	}
	return len(prog.Vars)
}

func (m *Machine) timeout() time.Duration {
	if m.ReadTimeout <= 0 {
		return 2 * time.Second
	}
	return m.ReadTimeout
}

// A frame is one world's run of the machine. It keeps the world's step
// count in a local while the world runs: loaded from stepsOff when the
// frame starts, stored back before the world forks and when its run
// ends, so a step costs no runtime call.
type frame struct {
	w     *core.World
	steps uint64
}

// run executes body in a frame over w.
func (m *Machine) run(w *core.World, body func(*frame) error) error {
	n, err := w.ReadUint64(stepsOff)
	if err != nil {
		return err
	}
	f := &frame{w: w, steps: n}
	if err := body(f); err != nil {
		return err
	}
	return f.store()
}

func (f *frame) store() error { return f.w.WriteUint64(stepsOff, f.steps) }

// charge counts one step of f's world against the budget.
func (m *Machine) charge(f *frame) error {
	limit := m.MaxSteps
	if limit <= 0 {
		limit = DefaultMaxSteps
	}
	if f.steps++; int64(f.steps) > limit {
		return ErrSteps
	}
	return nil
}

// Exec runs statements on behalf of w: assignments and reads go
// through the store (split per the receiver's assumptions about w),
// choo groups become alternative blocks of w.
func (m *Machine) Exec(w *core.World, stmts []Stmt) error {
	return m.run(w, func(f *frame) error { return m.exec(f, stmts) })
}

func (m *Machine) exec(f *frame, stmts []Stmt) error {
	for _, s := range stmts {
		if err := m.execStmt(f, s); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) execStmt(f *frame, s Stmt) error {
	if err := m.charge(f); err != nil {
		return err
	}
	w := f.w
	if w.Cancelled() {
		return fmt.Errorf("%v: world cancelled", s.Position())
	}
	switch x := s.(type) {
	case *Assign:
		v, err := m.eval(f, x.X)
		if err != nil {
			return err
		}
		return m.Store.Write(w, m.Prog.VarKey(x.Name), uint64(v))
	case *Print:
		v, err := m.eval(f, x.X)
		if err != nil {
			return err
		}
		// Speculative worlds defer the line; a loser's print is never
		// performed (§3.4.2 sources), a winner's is carried upward.
		return w.WriteConsole(m.PrintPrefix + strconv.FormatInt(v, 10))
	case *If:
		v, err := m.eval(f, x.Cond)
		if err != nil {
			return err
		}
		if v != 0 {
			return m.exec(f, x.Then)
		}
		return m.exec(f, x.Else)
	case *While:
		for {
			if err := m.charge(f); err != nil {
				return err
			}
			v, err := m.eval(f, x.Cond)
			if err != nil {
				return err
			}
			if v == 0 {
				return nil
			}
			if err := m.exec(f, x.Body); err != nil {
				return err
			}
		}
	case *Choo:
		return m.execChoo(f, x)
	default:
		return fmt.Errorf("%v: unexecutable statement %T", s.Position(), s)
	}
}

// execChoo lowers one choo group to an alternative block: each named
// procedure runs in a private COW world under "I complete, my group
// siblings don't"; their variable accesses contend through the store;
// the first to finish with its when condition satisfied commits. The
// procedures start from f's step count and f continues from the
// winner's.
func (m *Machine) execChoo(f *frame, c *Choo) error {
	alts := make([]core.Alt, len(c.Procs))
	for i, name := range c.Procs {
		d := m.Prog.Procs[name]
		alts[i] = core.Alt{
			Name: name,
			Body: func(cw *core.World) error { return m.execProc(cw, d) },
		}
	}
	if err := f.store(); err != nil {
		return err
	}
	_, err := f.w.RunAlt(core.Options{SyncElimination: true}, alts...)
	if errors.Is(err, core.ErrAllFailed) {
		return fmt.Errorf("%v: every procedure of choo(%v) refused", c.Pos, c.Procs)
	}
	if err != nil {
		return err
	}
	f.steps, err = f.w.ReadUint64(stepsOff)
	return err
}

// execProc runs procedure d as world w: its when guard, then its body.
func (m *Machine) execProc(w *core.World, d *ProcDecl) error {
	return m.run(w, func(f *frame) error {
		if d.When != nil {
			v, err := m.eval(f, d.When)
			if err != nil {
				return err
			}
			if v == 0 {
				return fmt.Errorf("%s at %v: %w", d.Name, d.When.Position(), ErrWhenRefused)
			}
		}
		return m.exec(f, d.Body)
	})
}

func (m *Machine) eval(f *frame, e Expr) (int64, error) {
	if err := m.charge(f); err != nil {
		return 0, err
	}
	switch x := e.(type) {
	case *IntLit:
		return x.Val, nil
	case *VarRef:
		v, err := m.Store.Read(f.w, m.Prog.VarKey(x.Name), m.timeout())
		if err != nil {
			return 0, fmt.Errorf("%v: read %s: %w", x.Pos, x.Name, err)
		}
		return int64(v), nil
	case *Unary:
		v, err := m.eval(f, x.X)
		if err != nil {
			return 0, err
		}
		if x.Op == "-" {
			return -v, nil
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case *Binary:
		a, err := m.eval(f, x.X)
		if err != nil {
			return 0, err
		}
		b, err := m.eval(f, x.Y)
		if err != nil {
			return 0, err
		}
		return applyBinary(x.Pos, x.Op, a, b)
	default:
		return 0, fmt.Errorf("%v: unevaluable expression %T", e.Position(), e)
	}
}

// applyBinary is shared with the sequential oracle, so both engines
// agree on arithmetic down to the division-by-zero error.
func applyBinary(pos Pos, op string, a, b int64) (int64, error) {
	switch op {
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		if b == 0 {
			return 0, fmt.Errorf("%v: division by zero", pos)
		}
		return a / b, nil
	case "%":
		if b == 0 {
			return 0, fmt.Errorf("%v: modulo by zero", pos)
		}
		return a % b, nil
	case "==":
		return b2i(a == b), nil
	case "!=":
		return b2i(a != b), nil
	case "<":
		return b2i(a < b), nil
	case "<=":
		return b2i(a <= b), nil
	case ">":
		return b2i(a > b), nil
	case ">=":
		return b2i(a >= b), nil
	default:
		return 0, fmt.Errorf("%v: unknown operator %q", pos, op)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ReadVars reads every program variable's final value through w.
func (m *Machine) ReadVars(w *core.World) (map[string]int64, error) {
	out := make(map[string]int64, len(m.Prog.Vars))
	for i, name := range m.Prog.Vars {
		v, err := m.Store.Read(w, i, m.timeout())
		if err != nil {
			return nil, fmt.Errorf("read final %s: %w", name, err)
		}
		out[name] = int64(v)
	}
	return out, nil
}
