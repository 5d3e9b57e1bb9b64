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

func TestSubscribe(t *testing.T) {
	tb := newTable()
	p := tb.Register(ids.None, "p")
	var events []Event
	unsub := tb.Subscribe(func(e Event) { events = append(events, e) })
	if err := tb.SetStatus(p, Blocked); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetStatus(p, Failed); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if events[0].Old != Running || events[0].New != Blocked {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[1].New != Failed {
		t.Fatalf("second event = %+v", events[1])
	}
	unsub()
	q := tb.Register(ids.None, "q")
	if err := tb.SetStatus(q, Completed); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatal("unsubscribed callback must not fire")
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
	var mu sync.Mutex
	count := 0
	tb.Subscribe(func(Event) { mu.Lock(); count++; mu.Unlock() })
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := tb.Register(ids.None, "w")
				if err := tb.SetStatus(p, Completed); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if tb.Len() != 400 || tb.Live() != 0 {
		t.Fatalf("Len=%d Live=%d", tb.Len(), tb.Live())
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 400 {
		t.Fatalf("subscriber saw %d events, want 400", count)
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
		for _, st := range []Status{Completed, Failed, Eliminated, Forked} {
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

// TestForkedLineageRetiresUpward: a Forked process stays indexed while
// any of its children is — they are the copies that stand in for it —
// and the whole lineage retires, leaf to root, when the last copy ends.
func TestForkedLineageRetiresUpward(t *testing.T) {
	tb := newTable()
	owner := tb.Register(ids.None, "owner")
	srv := tb.Register(owner, "srv")
	a, d := tb.Register(srv, "srv+"), tb.Register(srv, "srv-")
	mustSet := func(p ids.PID, st Status) {
		t.Helper()
		if err := tb.SetStatus(p, st); err != nil {
			t.Fatal(err)
		}
	}
	mustSet(srv, Forked)
	if got := tb.Children(owner); len(got) != 1 || got[0] != srv {
		t.Fatalf("forked srv with live copies left its parent's index: %v", got)
	}
	aa, ad := tb.Register(a, "srv++"), tb.Register(a, "srv+-")
	mustSet(a, Forked)
	mustSet(d, Eliminated)
	if got := tb.Children(srv); len(got) != 1 || got[0] != a {
		t.Fatalf("children(srv) = %v, want the forked copy %v only", got, a)
	}
	mustSet(aa, Eliminated)
	if tb.Indexed() != 3 {
		t.Fatalf("Indexed = %d, want 3 (owner, srv, srv+)", tb.Indexed())
	}
	mustSet(ad, Completed) // the last live copy ends: a, srv and owner's entry all go
	if tb.Indexed() != 0 || len(tb.Children(owner)) != 0 || len(tb.Children(srv)) != 0 {
		t.Fatalf("lineage not retired: Indexed = %d, children(owner) = %v, children(srv) = %v",
			tb.Indexed(), tb.Children(owner), tb.Children(srv))
	}
	// A fork whose copies all ended before it turned Forked retires at once.
	srv2 := tb.Register(owner, "srv2")
	c := tb.Register(srv2, "srv2+")
	mustSet(c, Eliminated)
	mustSet(srv2, Forked)
	if tb.Indexed() != 0 {
		t.Fatalf("childless fork stayed indexed: Indexed = %d", tb.Indexed())
	}
}

// TestChildIndexNeverMissesALiveChild: writers register and retire
// children of one parent while a reader keeps taking the index. A child
// whose registration has returned and whose terminal transition has not
// begun must be in every snapshot — the elimination cascade relies on it
// — and forks racing their last copy must leave nothing behind.
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
					// A fork and its only copy end at the same time from
					// two goroutines: the handshake in unlink.
					c := tb.Register(k, "copy")
					done := make(chan struct{})
					go func() {
						defer close(done)
						if err := tb.SetStatus(c, Eliminated); err != nil {
							t.Error(err)
						}
					}()
					live[g].Store(0)
					if err := tb.SetStatus(k, Forked); err != nil {
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
