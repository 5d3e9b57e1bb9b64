package prolog

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"altrun/internal/core"
	"altrun/internal/sim"
)

func orRT(t *testing.T, cpus int) *core.Runtime {
	t.Helper()
	return core.NewSim(core.SimConfig{
		Profile: sim.MachineProfile{Name: "zero", PageSize: 256, CPUs: cpus},
	})
}

// orFirst runs an OR-parallel query in a fresh simulated runtime.
func orFirst(t *testing.T, db *DB, query string, cfg OrConfig) (Solution, time.Duration, int64, error) {
	t.Helper()
	goals, qvars, err := ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	rt := orRT(t, 0)
	var (
		sol      Solution
		solveErr error
		elapsed  time.Duration
	)
	o := &OrSolver{DB: db, Cfg: cfg}
	rt.GoRoot("query", 4096, func(w *core.World) {
		start := rt.Now()
		sol, solveErr = o.SolveFirst(w, goals, qvars)
		elapsed = rt.Now().Sub(start)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return sol, elapsed, o.Steps(), solveErr
}

func TestOrParallelMatchesSequentialValidity(t *testing.T) {
	db := familyDB(t)
	queries := []string{
		"parent(tom, X)",
		"anc(tom, X)",
		"append([1,2], [3], R)",
		"nrev([a,b,c], R)",
		"member(X, [p,q,r])",
	}
	for _, q := range queries {
		q := q
		t.Run(q, func(t *testing.T) {
			sol, _, _, err := orFirst(t, db, q, OrConfig{})
			if err != nil {
				t.Fatal(err)
			}
			// The OR-parallel first solution must be one of the
			// sequential engine's solutions (nondeterministic but
			// sound selection).
			all := solveAll(t, db, q, 0)
			found := false
			for _, s := range all {
				if s.String() == sol.String() {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("or-parallel solution %v not among sequential solutions %v", sol, all)
			}
		})
	}
}

func TestOrParallelNoSolution(t *testing.T) {
	db := familyDB(t)
	_, _, _, err := orFirst(t, db, "parent(jim, X)", OrConfig{})
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

func TestOrParallelDeterministicGoalsNoRace(t *testing.T) {
	// nrev has one clause per list shape: no choice points with 2+
	// clauses... except member/append; use a fully deterministic chain.
	db := NewDB()
	if err := db.Load("only(a).\nchain(X) :- only(X)."); err != nil {
		t.Fatal(err)
	}
	rt := orRT(t, 0)
	var spawns int
	o := &OrSolver{DB: db}
	goals, qvars, _ := ParseQuery("chain(X)")
	rt.GoRoot("query", 4096, func(w *core.World) {
		if _, err := o.SolveFirst(w, goals, qvars); err != nil {
			t.Error(err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Only the root world: deterministic prefixes must not spawn alts.
	spawns = rt.Processes()
	if spawns != 1 {
		t.Fatalf("processes = %d, want 1 (no racing on deterministic goals)", spawns)
	}
}

// skewedDB builds a program where the first clause of pick/1 burns
// `depth` inferences before succeeding and the second succeeds
// immediately — the OR-parallel sweet spot (§7: execution time "can
// vary greatly with the input").
func skewedDB(t *testing.T, depth int) *DB {
	t.Helper()
	db := NewDB()
	var b strings.Builder
	b.WriteString("burn(zero).\n")
	b.WriteString("burn(s(N)) :- burn(N).\n")
	// pick: slow clause first so sequential execution pays full price.
	b.WriteString(fmt.Sprintf("pick(slow) :- burn(%s).\n", nest(depth)))
	b.WriteString("pick(fast).\n")
	if err := db.Load(b.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

func nest(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString("s(")
	}
	b.WriteString("zero")
	for i := 0; i < n; i++ {
		b.WriteString(")")
	}
	return b.String()
}

func TestOrParallelBeatsSequentialOnSkewedSearch(t *testing.T) {
	const depth = 2000
	db := skewedDB(t, depth)
	step := 100 * time.Microsecond

	// Sequential: explores the slow clause first.
	goals, qvars, err := ParseQuery("pick(X)")
	if err != nil {
		t.Fatal(err)
	}
	seq := &Solver{DB: db}
	seqSol, found, err := seq.SolveFirst(goals, qvars)
	if err != nil || !found {
		t.Fatalf("sequential: %v %v", err, found)
	}
	if seqSol["X"] != "slow" {
		t.Fatalf("sequential first solution = %v (clause order)", seqSol)
	}
	seqTime := time.Duration(seq.Steps()) * step

	// OR-parallel: the fast clause commits almost immediately.
	parSol, parTime, _, err := orFirst(t, db, "pick(X)", OrConfig{StepCost: step, ChunkSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if parSol["X"] != "fast" {
		t.Fatalf("parallel solution = %v, want fast", parSol)
	}
	if parTime*10 >= seqTime {
		t.Fatalf("parallel %v not ≫ faster than sequential %v", parTime, seqTime)
	}
}

func TestOrParallelCancellationBoundsWastedWork(t *testing.T) {
	// The losing branch must stop shortly after elimination: its step
	// count is bounded by the winner's runtime plus one chunk.
	const depth = 8000
	db := skewedDB(t, depth)
	_, _, steps, err := orFirst(t, db, "pick(X)", OrConfig{StepCost: time.Millisecond, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if steps > depth/2 {
		t.Fatalf("wasted steps = %d; cancellation failed to bound the loser", steps)
	}
}

func TestOrParallelNestedDepth(t *testing.T) {
	// Depth 2: race the outer choice and the first inner choice.
	db := NewDB()
	err := db.Load(`
route(X) :- leg1(X).
route(X) :- leg2(X).
leg1(a1).
leg1(a2).
leg2(b1).
`)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, _, err := orFirst(t, db, "route(X)", OrConfig{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := sol["X"]
	if got != "a1" && got != "a2" && got != "b1" {
		t.Fatalf("solution = %v", sol)
	}
}

func TestOrParallelSolutionRoundTrip(t *testing.T) {
	// Structured bindings survive the space serialization.
	db := familyDB(t)
	sol, _, _, err := orFirst(t, db, "append(A, B, [x,y])", OrConfig{})
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{
		"A=[] B=[x,y]": true,
		"A=[x] B=[y]":  true,
		"A=[x,y] B=[]": true,
	}
	if !valid[sol.String()] {
		t.Fatalf("solution = %q", sol.String())
	}
}

func TestOrParallelRealMode(t *testing.T) {
	// The same solver drives real goroutines.
	db := familyDB(t)
	rt := core.New(core.Config{PageSize: 256})
	root, err := rt.NewRootWorld("main", 4096)
	if err != nil {
		t.Fatal(err)
	}
	goals, qvars, _ := ParseQuery("anc(tom, X)")
	o := &OrSolver{DB: db}
	sol, err := o.SolveFirst(root, goals, qvars)
	if err != nil {
		t.Fatal(err)
	}
	if sol["X"] == "" {
		t.Fatalf("solution = %v", sol)
	}
	rt.Wait()
}
