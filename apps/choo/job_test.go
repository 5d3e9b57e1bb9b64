package choo

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"altrun/internal/core"
	"altrun/internal/serve"
)

func runProgram(t *testing.T, rt *core.Runtime, src string, opt JobOptions) serve.JobResult {
	t.Helper()
	pool, err := serve.NewPool(serve.Config{Workers: 2, SpecTokens: 8, Runtime: rt})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	t.Cleanup(func() { pool.Drain(context.Background()) })
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tk, err := pool.Submit(CompileJob(t.Name(), prog, opt))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return res
}

// checkAgainstOracle asserts the runtime result is one of the program's
// sequential outcomes — the paper's transparency claim for choo: the
// concurrent execution is indistinguishable from SOME sequential
// resolution of every choice.
func checkAgainstOracle(t *testing.T, src string, res serve.JobResult) Result {
	t.Helper()
	if res.Status != serve.StatusDone {
		t.Fatalf("status %v (err %v), want done", res.Status, res.Err)
	}
	out, ok := res.Value.(Result)
	if !ok {
		t.Fatalf("value %T, want choo.Result", res.Value)
	}
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	outs, err := Oracle(prog, 0)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for _, o := range outs {
		if o.Matches(out.Vars, out.Prints) {
			return out
		}
	}
	t.Fatalf("result vars=%v prints=%v matches none of %d sequential outcomes %+v",
		out.Vars, out.Prints, len(outs), outs)
	return Result{}
}

// TestContendedGroupSplitsStore is the front-end's core claim: a choo
// group whose procedures write the same variable forces receiver
// splits in the store, and the committed state is a sequential outcome.
// A split needs a loser to send before the winner commits, which one
// run on a free core may not see, so the program runs up to 20 times on
// one runtime: every run must match the oracle, and the runs together
// must split the store.
func TestContendedGroupSplitsStore(t *testing.T) {
	src := `
x := 5;
proc double { x := x * 2; }
proc reset  { x := 0; }
proc bump   { x := x + 1; }
choo(double, reset, bump);
print x;
`
	rt := core.New(core.Config{})
	before := rt.MsgStats()
	for round := 1; round <= 20; round++ {
		res := runProgram(t, rt, src, JobOptions{})
		out := checkAgainstOracle(t, src, res)
		if len(out.Prints) != 1 {
			t.Fatalf("round %d: prints = %v, want exactly the winner's value", round, out.Prints)
		}
		if rt.MsgStats().Splits > before.Splits {
			return
		}
	}
	t.Errorf("no receiver splits in 20 runs (%d -> %d): contending procedures must split the store",
		before.Splits, rt.MsgStats().Splits)
}

// TestWhenGuardSelectsWinner: a statically-false when refuses its
// procedure, so the other must commit.
func TestWhenGuardSelectsWinner(t *testing.T) {
	src := `
x := 1;
proc no  { when x > 100; x := -1; }
proc yes { when x == 1; x := 42; }
choo(no, yes);
`
	rt := core.New(core.Config{})
	res := runProgram(t, rt, src, JobOptions{})
	out := checkAgainstOracle(t, src, res)
	if out.Vars["x"] != 42 {
		t.Errorf("x = %d, want 42 (only yes is viable)", out.Vars["x"])
	}
	if res.Winner != "yes" {
		t.Errorf("winner = %q, want yes", res.Winner)
	}
}

// TestChainedGroupsThroughExtract: the second top-level group lowers to
// a nested block run by Extract on the committed root, its when guards
// reading the first group's outcome.
func TestChainedGroupsThroughExtract(t *testing.T) {
	src := `
proc a { x := 1; }
proc b { x := 2; }
proc lo { when x == 1; y := 10; }
proc hi { when x == 2; y := 20; }
choo(a, b);
choo(lo, hi);
print y;
`
	rt := core.New(core.Config{})
	res := runProgram(t, rt, src, JobOptions{})
	out := checkAgainstOracle(t, src, res)
	if out.Vars["y"] != out.Vars["x"]*10 {
		t.Errorf("vars %v violate y == 10x", out.Vars)
	}
}

// TestNoChooRunsAsSingleAlternative: a group-free program still runs
// (one "main" alternative), prints and all.
func TestNoChooRunsAsSingleAlternative(t *testing.T) {
	src := `
x := 0;
while x < 5 { x := x + 1; print x; }
`
	rt := core.New(core.Config{})
	res := runProgram(t, rt, src, JobOptions{})
	out := checkAgainstOracle(t, src, res)
	if out.Vars["x"] != 5 || len(out.Prints) != 5 {
		t.Errorf("vars=%v prints=%v, want x=5 and five lines", out.Vars, out.Prints)
	}
	if res.Winner != "main" {
		t.Errorf("winner = %q, want main", res.Winner)
	}
}

// TestAllRefuseFailsJob: every procedure refusing fails the job (the
// block has no committable alternative).
func TestAllRefuseFailsJob(t *testing.T) {
	src := `
proc a { when 0; x := 1; }
proc b { when 0; x := 2; }
choo(a, b);
`
	rt := core.New(core.Config{})
	res := runProgram(t, rt, src, JobOptions{})
	if res.Status != serve.StatusFailed {
		t.Fatalf("status %v, want failed (every procedure refused)", res.Status)
	}
}

// TestLosersPrintsNeverObservable: both procedures print, exactly one
// line survives — the deferred-console rule applied to the language.
func TestLosersPrintsNeverObservable(t *testing.T) {
	src := `
proc a { x := 1; print 111; }
proc b { x := 2; print 222; }
choo(a, b);
`
	rt := core.New(core.Config{})
	res := runProgram(t, rt, src, JobOptions{})
	out := checkAgainstOracle(t, src, res)
	if len(out.Prints) != 1 {
		t.Fatalf("prints = %v, want exactly the winner's line", out.Prints)
	}
	want := map[int64]string{1: "111", 2: "222"}[out.Vars["x"]]
	if out.Prints[0] != want {
		t.Errorf("print %q does not belong to winner x=%d", out.Prints[0], out.Vars["x"])
	}
}

// TestStepBudgetIsPerPath: MaxSteps bounds one execution path, so a
// losing procedure's steps are never charged to the winner. A
// sequential run of this program takes about 85 steps; the two
// procedures together take about 165, over the budget of 120, so a
// budget shared between them fails the job at degree 2.
func TestStepBudgetIsPerPath(t *testing.T) {
	var src strings.Builder
	src.WriteString("x := 1;\n")
	for _, name := range []string{"a", "b"} {
		fmt.Fprintf(&src, "proc %s {", name)
		for i := 0; i < 20; i++ {
			src.WriteString(" x := x + 1;")
		}
		src.WriteString(" }\n")
	}
	src.WriteString("choo(a, b);\n")
	for run := 0; run < 20; run++ {
		rt := core.New(core.Config{})
		res := runProgram(t, rt, src.String(), JobOptions{MaxDegree: 2, MaxSteps: 120})
		if res.Status != serve.StatusDone {
			t.Fatalf("run %d: status %v (err %v), want done: a path of ~85 steps fits a budget of 120",
				run, res.Status, res.Err)
		}
		if out := checkAgainstOracle(t, src.String(), res); out.Vars["x"] != 21 {
			t.Fatalf("run %d: x = %d, want 21", run, out.Vars["x"])
		}
	}
	// The budget still binds one path.
	res := runProgram(t, core.New(core.Config{}), src.String(), JobOptions{MaxDegree: 2, MaxSteps: 60})
	if res.Status != serve.StatusFailed {
		t.Fatalf("status %v with a budget of 60, want failed", res.Status)
	}
}

// TestCleanupRetiresStore: after the job (success or failure), no
// worlds leak.
func TestCleanupRetiresStore(t *testing.T) {
	src := `
proc a { x := 1; }
proc b { x := 2; }
choo(a, b);
`
	rt := core.New(core.Config{})
	runProgram(t, rt, src, JobOptions{})
	deadline := time.Now().Add(5 * time.Second)
	for rt.LiveWorlds() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d worlds still live after job finished", rt.LiveWorlds())
		}
		time.Sleep(time.Millisecond)
	}
}
