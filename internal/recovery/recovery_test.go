package recovery

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"altrun/internal/core"
	"altrun/internal/sim"
	"altrun/internal/workload"
)

func zeroProfile() sim.MachineProfile {
	return sim.MachineProfile{Name: "zero", PageSize: 256, CPUs: 0}
}

// runInSim executes fn inside a root world of a fresh simulated
// runtime and returns the runtime.
func runInSim(t *testing.T, spaceSize int64, fn func(w *core.World)) *core.Runtime {
	t.Helper()
	rt := core.NewSim(core.SimConfig{Profile: zeroProfile()})
	rt.GoRoot("root", spaceSize, fn)
	if err := rt.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	return rt
}

func demoBlock(xs []int, perCompare time.Duration, corruptFirst bool) *Block {
	return &Block{
		Name: "sortblock",
		Alternates: []Alternate{
			SortVersion("primary-quicksort", workload.NaiveQuicksort, perCompare, corruptFirst),
			SortVersion("secondary-heapsort", workload.Heapsort, perCompare, false),
			SortVersion("tertiary-insertion", workload.InsertionSort, perCompare, false),
		},
		AcceptanceTest: SortedAcceptanceTest(Sum(xs)),
	}
}

func TestArrayRoundTrip(t *testing.T) {
	xs := []int{5, -3, 42, 0, 7}
	runInSim(t, ArraySpaceSize(len(xs)), func(w *core.World) {
		if err := WriteIntArray(w, xs); err != nil {
			t.Error(err)
			return
		}
		got, err := ReadIntArray(w)
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != len(xs) {
			t.Errorf("len = %d", len(got))
			return
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Errorf("elem %d = %d, want %d", i, got[i], xs[i])
			}
		}
	})
}

func TestSequentialFirstAcceptable(t *testing.T) {
	xs := workload.RandomList(100, rngNew(1))
	runInSim(t, ArraySpaceSize(len(xs)), func(w *core.World) {
		if err := WriteIntArray(w, xs); err != nil {
			t.Error(err)
			return
		}
		b := demoBlock(xs, 0, false)
		idx, err := b.RunSequential(w)
		if err != nil {
			t.Error(err)
			return
		}
		if idx != 0 {
			t.Errorf("accepted alternate = %d, want 0 (primary)", idx)
		}
		got, _ := ReadIntArray(w)
		if !workload.IsSorted(got) {
			t.Error("result not sorted")
		}
	})
}

func TestSequentialRollbackOnFault(t *testing.T) {
	xs := workload.RandomList(100, rngNew(2))
	runInSim(t, ArraySpaceSize(len(xs)), func(w *core.World) {
		if err := WriteIntArray(w, xs); err != nil {
			t.Error(err)
			return
		}
		b := demoBlock(xs, 0, true) // primary is buggy
		idx, err := b.RunSequential(w)
		if err != nil {
			t.Error(err)
			return
		}
		if idx != 1 {
			t.Errorf("accepted alternate = %d, want 1 (secondary after rollback)", idx)
		}
		got, _ := ReadIntArray(w)
		if !workload.IsSorted(got) || Sum(got) != Sum(xs) {
			t.Error("post-state corrupt after rollback path")
		}
	})
}

func TestSequentialAllFail(t *testing.T) {
	xs := workload.RandomList(10, rngNew(3))
	runInSim(t, ArraySpaceSize(len(xs)), func(w *core.World) {
		if err := WriteIntArray(w, xs); err != nil {
			t.Error(err)
			return
		}
		before, _ := w.Snapshot()
		b := &Block{
			Name: "hopeless",
			Alternates: []Alternate{
				SortVersion("bug1", workload.Heapsort, 0, true),
				SortVersion("bug2", workload.Heapsort, 0, true),
			},
			AcceptanceTest: SortedAcceptanceTest(Sum(xs)),
		}
		_, err := b.RunSequential(w)
		if !errors.Is(err, ErrNoAcceptableAlternate) {
			t.Errorf("err = %v", err)
			return
		}
		after, _ := w.Snapshot()
		for i := range before {
			if before[i] != after[i] {
				t.Error("failed block must leave state rolled back")
				return
			}
		}
	})
}

func TestConcurrentFastestAcceptableWins(t *testing.T) {
	// Sorted input: naive quicksort is pathologically slow, insertion
	// sort is linear — concurrent execution must pick insertion.
	xs := workload.SortedList(500)
	var res core.Result
	runInSim(t, ArraySpaceSize(len(xs)), func(w *core.World) {
		if err := WriteIntArray(w, xs); err != nil {
			t.Error(err)
			return
		}
		b := demoBlock(xs, time.Microsecond, false)
		r, err := b.RunConcurrent(w, DefaultConcurrentOptions(0))
		if err != nil {
			t.Error(err)
			return
		}
		res = r
		got, _ := ReadIntArray(w)
		if !workload.IsSorted(got) {
			t.Error("result not sorted")
		}
	})
	if res.Name != "tertiary-insertion" {
		t.Fatalf("winner = %q, want tertiary-insertion on sorted input", res.Name)
	}
}

func TestConcurrentSkipsBuggyVersion(t *testing.T) {
	// Buggy primary fails its acceptance test even if fastest.
	xs := workload.NearlySorted(300, 5, rngNew(4))
	var res core.Result
	runInSim(t, ArraySpaceSize(len(xs)), func(w *core.World) {
		if err := WriteIntArray(w, xs); err != nil {
			t.Error(err)
			return
		}
		b := &Block{
			Name: "faulty-primary",
			Alternates: []Alternate{
				SortVersion("buggy-fast", workload.InsertionSort, 0, true),
				SortVersion("correct-slow", workload.Heapsort, time.Microsecond, false),
			},
			AcceptanceTest: SortedAcceptanceTest(Sum(xs)),
		}
		r, err := b.RunConcurrent(w, DefaultConcurrentOptions(0))
		if err != nil {
			t.Error(err)
			return
		}
		res = r
		got, _ := ReadIntArray(w)
		if !workload.IsSorted(got) || Sum(got) != Sum(xs) {
			t.Error("accepted state corrupt")
		}
	})
	if res.Name != "correct-slow" {
		t.Fatalf("winner = %q", res.Name)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1 (buggy version rejected)", res.Failures)
	}
}

func TestConcurrentAllFail(t *testing.T) {
	xs := workload.RandomList(20, rngNew(5))
	runInSim(t, ArraySpaceSize(len(xs)), func(w *core.World) {
		if err := WriteIntArray(w, xs); err != nil {
			t.Error(err)
			return
		}
		b := &Block{
			Name: "hopeless",
			Alternates: []Alternate{
				SortVersion("bug1", workload.Heapsort, 0, true),
				SortVersion("bug2", workload.InsertionSort, 0, true),
			},
			AcceptanceTest: SortedAcceptanceTest(Sum(xs)),
		}
		before, _ := w.Snapshot()
		_, err := b.RunConcurrent(w, DefaultConcurrentOptions(0))
		if !errors.Is(err, ErrNoAcceptableAlternate) {
			t.Errorf("err = %v", err)
			return
		}
		after, _ := w.Snapshot()
		for i := range before {
			if before[i] != after[i] {
				t.Error("failed concurrent block mutated parent")
				return
			}
		}
	})
}

func TestEmptyBlock(t *testing.T) {
	runInSim(t, 64, func(w *core.World) {
		b := &Block{Name: "empty"}
		if _, err := b.RunSequential(w); !errors.Is(err, ErrNoAcceptableAlternate) {
			t.Errorf("sequential err = %v", err)
		}
		if _, err := b.RunConcurrent(w, DefaultConcurrentOptions(0)); !errors.Is(err, ErrNoAcceptableAlternate) {
			t.Errorf("concurrent err = %v", err)
		}
	})
}

func TestConcurrentBeatsSequentialOnFaultyPrimary(t *testing.T) {
	// The headline claim (cf. Kim 1984, Welch 1983): with a slow or
	// faulty primary, concurrent execution reaches an acceptable result
	// faster than try-rollback-retry.
	xs := workload.SortedList(400) // quicksort pathological case
	perCompare := time.Microsecond

	elapsedSeq := runRB(t, xs, perCompare, func(w *core.World, b *Block) error {
		_, err := b.RunSequential(w)
		return err
	})
	elapsedCon := runRB(t, xs, perCompare, func(w *core.World, b *Block) error {
		_, err := b.RunConcurrent(w, DefaultConcurrentOptions(0))
		return err
	})
	if elapsedCon >= elapsedSeq {
		t.Fatalf("concurrent (%v) must beat sequential (%v)", elapsedCon, elapsedSeq)
	}
}

func runRB(t *testing.T, xs []int, perCompare time.Duration, exec func(w *core.World, b *Block) error) time.Duration {
	t.Helper()
	rt := core.NewSim(core.SimConfig{Profile: zeroProfile()})
	var elapsed time.Duration
	rt.GoRoot("root", ArraySpaceSize(len(xs)), func(w *core.World) {
		if err := WriteIntArray(w, xs); err != nil {
			t.Error(err)
			return
		}
		b := demoBlock(xs, perCompare, false)
		start := rt.Now()
		if err := exec(w, b); err != nil {
			t.Error(err)
			return
		}
		elapsed = rt.Now().Sub(start)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return elapsed
}

func rngNew(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
