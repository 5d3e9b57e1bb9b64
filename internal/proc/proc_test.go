package proc

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"altrun/internal/ids"
)

func newTable() *Table { return NewTable(&ids.Generator{}) }

func TestRegisterAndGet(t *testing.T) {
	tb := newTable()
	parent := tb.Register(ids.None, "parent")
	child := tb.Register(parent, "child")
	e, ok := tb.Get(child)
	if !ok || e.Parent != parent || e.Name != "child" || e.Status != Running {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
	if _, ok := tb.Get(ids.PID(999)); ok {
		t.Fatal("unknown PID must not resolve")
	}
	if tb.Len() != 2 || tb.Live() != 2 {
		t.Fatalf("Len=%d Live=%d", tb.Len(), tb.Live())
	}
}

func TestSetStatusAndTerminal(t *testing.T) {
	tb := newTable()
	p := tb.Register(ids.None, "p")
	if err := tb.SetStatus(p, Blocked); err != nil {
		t.Fatal(err)
	}
	if tb.Status(p) != Blocked {
		t.Fatal("status not updated")
	}
	if err := tb.SetStatus(p, Completed); err != nil {
		t.Fatal(err)
	}
	// Terminal → terminal (different) is rejected.
	if err := tb.SetStatus(p, Failed); err == nil {
		t.Fatal("transition out of terminal must fail")
	}
	// Idempotent terminal set is fine.
	if err := tb.SetStatus(p, Completed); err != nil {
		t.Fatalf("idempotent terminal set: %v", err)
	}
	if err := tb.SetStatus(ids.PID(999), Running); err == nil {
		t.Fatal("unknown PID must fail")
	}
	if tb.Live() != 0 {
		t.Fatal("completed proc is not live")
	}
}

func TestChildren(t *testing.T) {
	tb := newTable()
	parent := tb.Register(ids.None, "parent")
	c1 := tb.Register(parent, "c1")
	c2 := tb.Register(parent, "c2")
	tb.Register(c1, "grandchild")
	kids := tb.Children(parent)
	if len(kids) != 2 || kids[0] != c1 || kids[1] != c2 {
		t.Fatalf("children = %v", kids)
	}
	if len(tb.Children(ids.PID(999))) != 0 {
		t.Fatal("unknown parent has no children")
	}
}

func TestStatusStringsAndPredicates(t *testing.T) {
	for _, s := range []Status{Running, Blocked, Completed, Failed, Eliminated} {
		if strings.HasPrefix(s.String(), "Status(") {
			t.Fatalf("status %d has no name", int(s))
		}
	}
	if Status(99).String() == "" {
		t.Fatal("unknown status must render")
	}
	if Running.Terminal() || Blocked.Terminal() {
		t.Fatal("running/blocked are not terminal")
	}
	if !Completed.Terminal() || !Failed.Terminal() || !Eliminated.Terminal() {
		t.Fatal("completed/failed/eliminated are terminal")
	}
	if !Completed.Succeeded() || Failed.Succeeded() || Eliminated.Succeeded() {
		t.Fatal("Succeeded wrong")
	}
}

func TestConcurrentRegisterAndStatus(t *testing.T) {
	tb := newTable()
	var wg sync.WaitGroup
	pids := make([][]ids.PID, 8)
	for w := range pids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := tb.Register(ids.None, "w")
				if err := tb.SetStatus(p, Completed); err != nil {
					t.Error(err)
				}
				pids[w] = append(pids[w], p)
			}
		}()
	}
	wg.Wait()
	if tb.Len() != 400 || tb.Live() != 0 {
		t.Fatalf("Len=%d Live=%d", tb.Len(), tb.Live())
	}
	for _, ps := range pids {
		for _, p := range ps {
			if st := tb.Status(p); st != Completed {
				t.Fatalf("%v is %v, want %v", p, st, Completed)
			}
		}
	}
}

func TestAppendChildren(t *testing.T) {
	tb := newTable()
	parent := tb.Register(ids.None, "parent")
	var want []ids.PID
	for i := 0; i < 5; i++ {
		want = append(want, tb.Register(parent, "kid"))
	}
	tb.Register(ids.None, "stranger") // different parent; must not appear
	got := tb.AppendChildren(nil, parent)
	if len(got) != len(want) {
		t.Fatalf("children = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("children = %v, want %v (registration order)", got, want)
		}
	}
	// Append semantics: the buffer prefix survives and capacity is
	// reused without allocation.
	buf := make([]ids.PID, 1, 16)
	buf[0] = ids.PID(999)
	buf = tb.AppendChildren(buf, parent)
	if len(buf) != 6 || buf[0] != ids.PID(999) {
		t.Fatalf("AppendChildren clobbered the buffer: %v", buf)
	}
	if got := tb.AppendChildren(nil, ids.PID(12345)); len(got) != 0 {
		t.Fatalf("children of unknown parent = %v", got)
	}
}

func TestChildIndexConcurrentRegistration(t *testing.T) {
	tb := newTable()
	parent := tb.Register(ids.None, "parent")
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tb.Register(parent, "kid")
			}
		}()
	}
	wg.Wait()
	kids := tb.Children(parent)
	if len(kids) != workers*per {
		t.Fatalf("children = %d, want %d", len(kids), workers*per)
	}
	seen := make(map[ids.PID]bool, len(kids))
	for _, k := range kids {
		if seen[k] {
			t.Fatalf("child %v indexed twice", k)
		}
		seen[k] = true
	}
}

// TestChildIndexIsLiveOnly: a child leaves its parent's index on its
// terminal transition, whatever the terminal status, and an emptied
// index is gone — the index costs what the parent runs now, not what it
// ever ran. Roots are in no index.
func TestChildIndexIsLiveOnly(t *testing.T) {
	tb := newTable()
	parent := tb.Register(ids.None, "parent")
	if tb.Indexed() != 0 {
		t.Fatalf("a root created an index entry: Indexed = %d", tb.Indexed())
	}
	for round := 0; round < 100; round++ {
		var kids []ids.PID
		for _, st := range []Status{Completed, Failed, Eliminated} {
			k := tb.Register(parent, "kid")
			kids = append(kids, k)
			if err := tb.SetStatus(k, Blocked); err != nil {
				t.Fatal(err)
			}
			if got := tb.Children(parent); len(got) != 1 || got[0] != k {
				t.Fatalf("round %d: children = %v, want [%v] (Blocked is not terminal)", round, got, k)
			}
			if err := tb.SetStatus(k, st); err != nil {
				t.Fatal(err)
			}
			if got := tb.Children(parent); len(got) != 0 {
				t.Fatalf("round %d: children after %v = %v, want none", round, st, got)
			}
		}
		if tb.Indexed() != 0 {
			t.Fatalf("round %d: Indexed = %d, want 0", round, tb.Indexed())
		}
		for _, k := range kids {
			if !tb.Status(k).Terminal() {
				t.Fatalf("status of retired %v lost", k)
			}
		}
	}
}

// TestChildIndexNeverMissesALiveChild: writers register and retire
// children of one parent while a reader keeps taking the index. A child
// whose registration has returned and whose terminal transition has not
// begun must be in every snapshot — the elimination cascade relies on it
// — and a child retiring at the same time as its own child must leave
// nothing behind.
func TestChildIndexNeverMissesALiveChild(t *testing.T) {
	tb := newTable()
	parent := tb.Register(ids.None, "parent")
	const workers, rounds = 8, 300
	var live [workers]atomic.Int64 // the PID worker g holds live, 0 when none
	var stop atomic.Bool
	var wg, readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var buf []ids.PID
		for !stop.Load() {
			var want [workers]int64
			for g := range live {
				want[g] = live[g].Load()
			}
			buf = tb.AppendChildren(buf[:0], parent)
			for g, pid := range want {
				// Still held after the snapshot: it was live throughout.
				if pid == 0 || live[g].Load() != pid {
					continue
				}
				found := false
				for _, k := range buf {
					found = found || int64(k) == pid
				}
				if !found {
					t.Errorf("live child %d of worker %d missing from %v", pid, g, buf)
					return
				}
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := tb.Register(parent, "kid")
				live[g].Store(int64(k))
				if i%3 == 0 {
					// A child and its only child end at the same time from
					// two goroutines.
					c := tb.Register(k, "grandchild")
					done := make(chan struct{})
					go func() {
						defer close(done)
						if err := tb.SetStatus(c, Eliminated); err != nil {
							t.Error(err)
						}
					}()
					live[g].Store(0)
					if err := tb.SetStatus(k, Completed); err != nil {
						t.Error(err)
					}
					<-done
					continue
				}
				live[g].Store(0)
				if err := tb.SetStatus(k, Eliminated); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	if got := tb.Children(parent); len(got) != 0 || tb.Indexed() != 0 {
		t.Fatalf("after every child retired: children = %v, Indexed = %d", got, tb.Indexed())
	}
}
