package core

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"altrun/internal/ids"
)

// Unit tests for the PID table: fates, the world lookup, child lists,
// subscriber buckets and release.

// bare records a world that is never published — what a block's child
// is before it is built: a PID with a fate and a record.
func bare(rt *Runtime) *World {
	w := &World{rt: rt}
	rt.tab.add(w)
	return w
}

// children returns the PIDs of w's children still running, in
// registration order.
func (t *pidTable) children(w *World) []ids.PID {
	var out []ids.PID
	if kids := w.kids.Load(); kids != nil {
		for _, c := range *kids {
			if !t.fate(c.pid).terminal() {
				out = append(out, c.pid)
			}
		}
	}
	return out
}

// live returns the number of issued PIDs whose fate is not terminal.
func (t *pidTable) live() int {
	n := 0
	for p := ids.PID(1); int64(p) <= t.issued.Load(); p++ {
		if !t.fate(p).terminal() {
			n++
		}
	}
	return n
}

// listedWorlds counts the listed worlds, as Runtime.LiveWorlds does.
func (t *pidTable) listedWorlds() int {
	n := 0
	t.each(func(w *World) {
		if w.listed.Load() {
			n++
		}
	})
	return n
}

// eachRegistry runs fn on a fresh table as a subtest named "lockfree",
// which keeps the tests' names stable.
func eachRegistry(t *testing.T, fn func(t *testing.T, mk func() *pidTable)) {
	t.Helper()
	t.Run("lockfree", func(t *testing.T) { fn(t, func() *pidTable { return &pidTable{} }) })
}

// listed records a world and lists it, as publishWorld does.
func listed(tab *pidTable, subs ...ids.PID) *World {
	w := &World{subPIDs: subs}
	tab.add(w)
	w.listed.Store(true)
	return w
}

// join lists w and subscribes it to w.subPIDs, as registration followed
// by activation does; leave undoes both.
func join(tab *pidTable, w *World) {
	w.listed.Store(true)
	tab.subscribe(w, w.subPIDs)
}

func leave(tab *pidTable, w *World) {
	tab.unlist(w)
	tab.unsubscribe(w, w.subPIDs)
}

func pidsOf(ws []*World) []ids.PID {
	out := make([]ids.PID, len(ws))
	for i, w := range ws {
		out[i] = w.pid
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRegistryAddRemoveWorld(t *testing.T) {
	eachRegistry(t, func(t *testing.T, mk func() *pidTable) {
		tab := mk()
		var ws []*World
		for i := 0; i < 64; i++ {
			ws = append(ws, listed(tab))
		}
		for _, w := range ws {
			if got := tab.world(w.pid); got != w {
				t.Fatalf("world(%v) = %p, want %p", w.pid, got, w)
			}
		}
		if got := tab.listedWorlds(); got != 64 {
			t.Fatalf("%d worlds listed, want 64", got)
		}
		for _, w := range ws[:32] {
			tab.unlist(w)
		}
		for _, w := range ws[:32] {
			if tab.world(w.pid) != nil {
				t.Fatalf("world(%v) still present after unlist", w.pid)
			}
			// Its fate is not terminal: the record stays.
			if tab.rec(w.pid) != w {
				t.Fatalf("record of running %v released", w.pid)
			}
		}
		if got := tab.listedWorlds(); got != 32 {
			t.Fatalf("%d worlds listed after unlisting, want 32", got)
		}
	})
}

func TestRegistrySubscriptionIndex(t *testing.T) {
	eachRegistry(t, func(t *testing.T, mk func() *pidTable) {
		tab := mk()
		subject, other := listed(tab), listed(tab)
		a := &World{subPIDs: []ids.PID{subject.pid}}
		b := &World{subPIDs: []ids.PID{subject.pid, other.pid}}
		c := &World{subPIDs: []ids.PID{other.pid}}
		for _, w := range []*World{a, b, c} {
			tab.add(w)
			join(tab, w)
		}

		got := pidsOf(tab.appendSubscribers(nil, subject.pid))
		if len(got) != 2 || got[0] != a.pid || got[1] != b.pid {
			t.Fatalf("subscribers(%v) = %v, want [%v %v]", subject.pid, got, a.pid, b.pid)
		}
		// A world subscribed to several PIDs appears in each bucket.
		got = pidsOf(tab.appendSubscribers(nil, other.pid))
		if len(got) != 2 || got[0] != b.pid || got[1] != c.pid {
			t.Fatalf("subscribers(%v) = %v, want [%v %v]", other.pid, got, b.pid, c.pid)
		}
		// A bucket is a set.
		tab.subscribe(a, a.subPIDs)
		if got := tab.appendSubscribers(nil, subject.pid); len(got) != 2 {
			t.Fatalf("a second subscribe duplicated a: %v", pidsOf(got))
		}
		// appendSubscribers appends; it must not clobber what's in buf.
		buf := []*World{c}
		buf = tab.appendSubscribers(buf, subject.pid)
		if len(buf) != 3 || buf[0] != c {
			t.Fatalf("appendSubscribers clobbered the buffer prefix: %v", pidsOf(buf))
		}

		// Removing a world removes it from every bucket it was in.
		leave(tab, b)
		got = pidsOf(tab.appendSubscribers(nil, subject.pid))
		if len(got) != 1 || got[0] != a.pid {
			t.Fatalf("subscribers(%v) after remove = %v, want [%v]", subject.pid, got, a.pid)
		}

		// dropBucket forgets the subscribers for good: a later subscribe
		// joins nothing (the catch-up applies the fate instead), and
		// removing a world whose bucket is gone is silent.
		tab.dropBucket(subject.pid)
		if got := tab.appendSubscribers(nil, subject.pid); len(got) != 0 {
			t.Fatalf("subscribers(%v) after drop = %v, want empty", subject.pid, got)
		}
		tab.subscribe(c, []ids.PID{subject.pid})
		if got := tab.appendSubscribers(nil, subject.pid); len(got) != 0 {
			t.Fatalf("a subscribe after the drop joined %v", pidsOf(got))
		}
		leave(tab, a) // a was subscribed to the dropped bucket
		if tab.world(a.pid) != nil {
			t.Fatal("unlist failed after dropBucket")
		}
		// An unissued PID has no bucket to join or read.
		tab.subscribe(c, []ids.PID{1 << 30})
		if got := tab.appendSubscribers(nil, 1<<30); len(got) != 0 {
			t.Fatalf("unissued PID has subscribers %v", pidsOf(got))
		}
	})
}

// TestRegistryConcurrentReadersWriters hammers the world lookup and the
// subscriber buckets from mixed readers and writers while writers'
// records are released and whole segments drop their slot arrays: a
// reader must never miss a world or a subscriber that stayed put.
func TestRegistryConcurrentReadersWriters(t *testing.T) {
	eachRegistry(t, func(t *testing.T, mk func() *pidTable) {
		tab := mk()
		const (
			writers = 4
			rounds  = 100
			perRnd  = 32
			readers = 4
		)
		subject := listed(tab)
		// Anchors that stay listed and subscribed for the whole run.
		var anchors []*World
		for i := 0; i < 16; i++ {
			anchors = append(anchors, listed(tab, subject.pid))
			tab.subscribe(anchors[i], anchors[i].subPIDs)
		}
		stop := make(chan struct{})
		var rg sync.WaitGroup
		for i := 0; i < readers; i++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				var buf []*World
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, a := range anchors {
						if tab.world(a.pid) != a {
							t.Error("anchor world vanished")
							return
						}
					}
					buf = tab.appendSubscribers(buf[:0], subject.pid)
					if len(buf) < 16 {
						t.Errorf("anchor bucket shrank to %d", len(buf))
						return
					}
				}
			}()
		}
		var wg sync.WaitGroup
		for wtr := 0; wtr < writers; wtr++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					ws := make([]*World, 0, perRnd)
					for i := 0; i < perRnd; i++ {
						w := &World{}
						tab.add(w)
						w.subPIDs = []ids.PID{subject.pid, w.pid}
						join(tab, w)
						ws = append(ws, w)
					}
					for _, w := range ws {
						leave(tab, w)
						tab.setFate(w, fateEliminated)
						tab.dropBucket(w.pid)
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		rg.Wait()
		if n := tab.listedWorlds(); n != 17 {
			t.Fatalf("%d worlds listed, want the subject and 16 anchors", n)
		}
		// Every writer's record was released; the segments that held only
		// theirs dropped their slot arrays.
		n := 0
		tab.each(func(*World) { n++ })
		if n != 17 {
			t.Fatalf("%d records left, want 17", n)
		}
		for seg := 1; seg < writers*rounds*perRnd/segSize; seg++ {
			if tab.segmentOf(ids.PID(seg*segSize+1)).recs.Load() != nil {
				t.Errorf("segment %d keeps its slot array with every record released", seg)
			}
		}
	})
}

// TestRegisterCatchUpResolution pins the registration-time catch-up:
// a world whose assumption was already decided before registerWorld ran
// must have it applied immediately — resolved away, or contradicted and
// the world eliminated — because the propagation snapshot that carried
// the resolution may have predated the registration.
func TestRegisterCatchUpResolution(t *testing.T) {
	rt := New(Config{PageSize: 64})

	// Assumption already satisfied: the predicate simplifies away.
	done := bare(rt)
	if !rt.tab.setFate(done, fateCompleted) {
		t.Fatal("setFate(completed) refused on a running PID")
	}
	w := registerBenchWorld(t, rt, "late", []ids.PID{done.pid}, nil)
	if w.Speculative() {
		t.Fatal("world still speculative after catch-up of a completed assumption")
	}
	if w.Terminated() {
		t.Fatal("world wrongly eliminated by a satisfied assumption")
	}
	rt.unregisterWorld(w)
	w.discardSpace()

	// Assumption already failed: the world is contradicted at birth.
	dead := bare(rt)
	if !rt.tab.setFate(dead, fateFailed) {
		t.Fatal("setFate(failed) refused on a running PID")
	}
	w2 := registerBenchWorld(t, rt, "doomed", []ids.PID{dead.pid}, nil)
	if !w2.Terminated() {
		t.Fatal("world not eliminated despite assuming an already-failed process")
	}
	if rt.worldByPID(w2.pid) != nil {
		t.Fatal("eliminated world still registered")
	}
	if n := rt.SelStats().Eliminations; n != 1 {
		t.Fatalf("eliminations = %d, want 1", n)
	}
}

// TestPIDTableUnknownPIDs: a PID that is not positive or not yet issued
// reads as unknown, with no record and no world, and reading it
// allocates nothing.
func TestPIDTableUnknownPIDs(t *testing.T) {
	var tab pidTable
	unknown := []ids.PID{0, -1, math.MinInt64, 1, 2, segSize + 1, math.MaxInt64}
	check := func(unknown []ids.PID) {
		for _, p := range unknown {
			if f := tab.fate(p); f != fateUnknown {
				t.Fatalf("fate(%v) = %v, want unknown", p, f)
			}
			if tab.rec(p) != nil || tab.world(p) != nil {
				t.Fatalf("unissued %v has a record", p)
			}
		}
	}
	check(unknown)
	w := listed(&tab)
	if w.pid != 1 || tab.fate(1) != fateRunning {
		t.Fatalf("first PID %v reads %v, want p1 running", w.pid, tab.fate(1))
	}
	unknown = slices.DeleteFunc(unknown, func(p ids.PID) bool { return p == w.pid })
	check(unknown)
	if raceEnabled {
		return // allocation counts do not hold under -race
	}
	if allocs := testing.AllocsPerRun(100, func() {
		check(unknown)
		_ = tab.fate(w.pid)
		_ = tab.world(w.pid)
	}); allocs != 0 {
		t.Fatalf("reading fates and records allocates %.0f objects, want 0", allocs)
	}
}

// TestPIDTableTerminalFateAbsorbs: the first terminal fate wins, setting
// it again is idempotent, a different one is refused, and PIDs that
// share a fate word keep their own fates.
func TestPIDTableTerminalFateAbsorbs(t *testing.T) {
	var tab pidTable
	terminals := []fate{fateCompleted, fateFailed, fateEliminated}
	var ws []*World
	for i := 0; i < 2*fatesPerWord+3; i++ {
		ws = append(ws, listed(&tab))
	}
	for i, w := range ws {
		if i%4 == 3 {
			continue // stays running
		}
		f := terminals[i%4]
		if !tab.setFate(w, f) {
			t.Fatalf("setFate(%v, %v) refused on a running PID", w.pid, f)
		}
		if !tab.setFate(w, f) {
			t.Fatalf("setting %v's fate %v again is not idempotent", w.pid, f)
		}
		if tab.setFate(w, terminals[(i%4+1)%3]) {
			t.Fatalf("%v moved out of terminal %v", w.pid, f)
		}
	}
	for i, w := range ws {
		want := fateRunning
		if i%4 != 3 {
			want = terminals[i%4]
		}
		if got := tab.fate(w.pid); got != want {
			t.Fatalf("fate(%v) = %v, want %v", w.pid, got, want)
		}
	}
	if tab.live() != len(ws)/4 {
		t.Fatalf("live = %d, want %d", tab.live(), len(ws)/4)
	}
}

// TestPIDTableFatePredicates: completed, failed and eliminated are
// terminal and unknown and running are not; only completed succeeds.
func TestPIDTableFatePredicates(t *testing.T) {
	for _, c := range []struct {
		f                   fate
		terminal, succeeded bool
	}{
		{fateUnknown, false, false},
		{fateRunning, false, false},
		{fateCompleted, true, true},
		{fateFailed, true, false},
		{fateEliminated, true, false},
	} {
		if c.f.terminal() != c.terminal || c.f.succeeded() != c.succeeded {
			t.Fatalf("fate %d: terminal = %v, succeeded = %v; want %v, %v",
				c.f, c.f.terminal(), c.f.succeeded(), c.terminal, c.succeeded)
		}
	}
}

// TestPIDTableConcurrentAddAndFate: concurrent adds hand out distinct
// PIDs, and concurrent terminal transitions on PIDs that share fate
// words each land.
func TestPIDTableConcurrentAddAndFate(t *testing.T) {
	var tab pidTable
	terminals := []fate{fateCompleted, fateFailed, fateEliminated}
	var wg sync.WaitGroup
	ws := make([][]*World, 8)
	for g := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w := listed(&tab)
				if !tab.setFate(w, terminals[int(w.pid)%3]) {
					t.Errorf("setFate refused on running %v", w.pid)
				}
				ws[g] = append(ws[g], w)
			}
		}()
	}
	wg.Wait()
	if n := tab.issued.Load(); n != 400 || tab.live() != 0 {
		t.Fatalf("issued = %d, live = %d; want 400 and 0", n, tab.live())
	}
	seen := map[ids.PID]bool{}
	for _, g := range ws {
		for _, w := range g {
			if seen[w.pid] {
				t.Fatalf("%v issued twice", w.pid)
			}
			seen[w.pid] = true
			if got, want := tab.fate(w.pid), terminals[int(w.pid)%3]; got != want {
				t.Fatalf("%v is %v, want %v", w.pid, got, want)
			}
		}
	}
}

// TestPIDTableChildList: a block's children join their parent's list in
// registration order, and the list holds the parent's own children only.
func TestPIDTableChildList(t *testing.T) {
	var tab pidTable
	parent := listed(&tab)
	c1, c2 := &World{}, &World{}
	tab.addBlock(parent, []*World{c1, c2})
	g := &World{}
	tab.addBlock(c1, []*World{g})
	stranger := listed(&tab)
	if got := tab.children(parent); len(got) != 2 || got[0] != c1.pid || got[1] != c2.pid {
		t.Fatalf("children = %v, want [%v %v]", got, c1.pid, c2.pid)
	}
	if got := tab.children(c1); len(got) != 1 || got[0] != g.pid {
		t.Fatalf("grandchildren = %v, want [%v]", got, g.pid)
	}
	if stranger.kids.Load() != nil || c2.kids.Load() != nil {
		t.Fatal("a world with no children has a child list")
	}
	if c1.parent != parent || c2.parent != parent || g.parent != c1 {
		t.Fatal("a child does not point at its parent")
	}
}

// TestPIDTableChildListAppendsInOrder: a later block under the same
// parent appends its children after the earlier ones, in registration
// order, and a world registered under another parent never joins.
func TestPIDTableChildListAppendsInOrder(t *testing.T) {
	var tab pidTable
	parent := listed(&tab)
	first := []*World{{}, {}}
	tab.addBlock(parent, first)
	stranger := listed(&tab)
	tab.addBlock(stranger, []*World{{}})
	more := []*World{{}, {}, {}}
	tab.addBlock(parent, more)
	want := []ids.PID{first[0].pid, first[1].pid, more[0].pid, more[1].pid, more[2].pid}
	got := tab.children(parent)
	if len(got) != len(want) {
		t.Fatalf("children = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("children = %v, want %v (registration order)", got, want)
		}
	}
	if more[2].parent != parent {
		t.Fatal("a child of the second block does not point at its parent")
	}
}

// TestPIDTableChildListConcurrentBlocks: blocks registered concurrently
// under one parent all land in its list, each child once.
func TestPIDTableChildListConcurrentBlocks(t *testing.T) {
	var tab pidTable
	parent := listed(&tab)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tab.addBlock(parent, []*World{{}})
			}
		}()
	}
	wg.Wait()
	kids := tab.children(parent)
	if len(kids) != workers*per {
		t.Fatalf("children = %d, want %d", len(kids), workers*per)
	}
	seen := make(map[ids.PID]bool, len(kids))
	for _, k := range kids {
		if seen[k] {
			t.Fatalf("child %v listed twice", k)
		}
		seen[k] = true
	}
}

// TestPIDTableChildListIsLiveOnly: a child leaves its parent's list on
// its terminal transition, whatever the terminal fate, and an emptied
// list is gone — the list costs what the parent runs now, not what it
// ever ran. Roots are in no list.
func TestPIDTableChildListIsLiveOnly(t *testing.T) {
	var tab pidTable
	parent := listed(&tab)
	if parent.parent != nil || parent.kids.Load() != nil {
		t.Fatal("a root is in a child list or has one")
	}
	for round := 0; round < 100; round++ {
		var kids []*World
		for _, f := range []fate{fateCompleted, fateFailed, fateEliminated} {
			k := &World{}
			tab.addBlock(parent, []*World{k})
			kids = append(kids, k)
			if got := tab.children(parent); len(got) != 1 || got[0] != k.pid {
				t.Fatalf("round %d: children = %v, want [%v]", round, got, k.pid)
			}
			tab.setFate(k, f)
			if parent.kids.Load() != nil {
				t.Fatalf("round %d: the list outlived its last child (%v)", round, f)
			}
		}
		for _, k := range kids {
			if !tab.fate(k.pid).terminal() {
				t.Fatalf("fate of ended %v lost", k.pid)
			}
		}
	}
}

// TestPIDTableChildListNeverMissesALiveChild: writers register and end
// children of one parent while a reader keeps taking the list. A child
// whose registration has returned and whose terminal transition has not
// begun must be in every snapshot — the elimination cascade relies on it
// — and a child ending at the same time as its own child must leave
// nothing behind.
func TestPIDTableChildListNeverMissesALiveChild(t *testing.T) {
	var tab pidTable
	parent := listed(&tab)
	const workers, rounds = 8, 300
	var live [workers]atomic.Int64 // the PID worker g holds live, 0 when none
	var stop atomic.Bool
	var wg, readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			var want [workers]int64
			for g := range live {
				want[g] = live[g].Load()
			}
			var snap []*World
			if l := parent.kids.Load(); l != nil {
				snap = *l
			}
			for g, pid := range want {
				// Still held after the snapshot: it was live throughout.
				if pid == 0 || live[g].Load() != pid {
					continue
				}
				found := false
				for _, k := range snap {
					found = found || int64(k.pid) == pid
				}
				if !found {
					t.Errorf("live child %d of worker %d missing from %v", pid, g, pidsOf(snap))
					return
				}
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := &World{}
				tab.addBlock(parent, []*World{k})
				live[g].Store(int64(k.pid))
				if i%3 == 0 {
					// A child and its only child end at the same time from
					// two goroutines.
					c := &World{}
					tab.addBlock(k, []*World{c})
					done := make(chan struct{})
					go func() {
						defer close(done)
						tab.setFate(c, fateEliminated)
					}()
					live[g].Store(0)
					tab.setFate(k, fateCompleted)
					<-done
					if k.kids.Load() != nil {
						t.Errorf("%v keeps a child list after its child ended", k.pid)
					}
					continue
				}
				live[g].Store(0)
				tab.setFate(k, fateEliminated)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	if got := tab.children(parent); len(got) != 0 || parent.kids.Load() != nil {
		t.Fatalf("after every child ended: children = %v, list kept = %v", got, parent.kids.Load() != nil)
	}
}

// TestPIDTableReadersNeverMissStableKeys: records churn through several
// segments — the directory grows, records are released and emptied
// segments drop their slot arrays — while readers look up anchors that
// stay put. A reader must never miss an anchor, and never read an issued
// PID as unknown.
func TestPIDTableReadersNeverMissStableKeys(t *testing.T) {
	var tab pidTable
	var anchors []*World
	for i := 0; i < 8; i++ {
		anchors = append(anchors, listed(&tab))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, a := range anchors {
					if tab.world(a.pid) != a || tab.fate(a.pid) != fateRunning {
						t.Errorf("anchor %v vanished", a.pid)
						return
					}
				}
				if p := ids.PID(tab.issued.Load()); tab.fate(p) == fateUnknown {
					t.Errorf("issued %v reads unknown", p)
					return
				}
			}
		}()
	}
	for i := 0; i < 4*segSize; i++ {
		w := listed(&tab)
		tab.unlist(w)
		tab.setFate(w, fateFailed)
		tab.dropBucket(w.pid)
	}
	close(stop)
	wg.Wait()
	for seg := 1; seg < 4; seg++ {
		if tab.segmentOf(ids.PID(seg*segSize+1)).recs.Load() != nil {
			t.Errorf("segment %d keeps its slot array with every record released", seg)
		}
	}
}

// TestPIDTableReleasesRecords: a record leaves its slot only once its
// fate is terminal, it is unlisted, its bucket is dropped and its child
// list is empty — whatever order those come in — and its fate stays.
func TestPIDTableReleasesRecords(t *testing.T) {
	var tab pidTable
	perms := [][]int{{0, 1, 2, 3}}
	for len(perms) < 24 { // every order of the four events
		next := append([]int(nil), perms[len(perms)-1]...)
		i := len(next) - 2
		for next[i] > next[i+1] {
			i--
		}
		j := len(next) - 1
		for next[j] < next[i] {
			j--
		}
		next[i], next[j] = next[j], next[i]
		for a, b := i+1, len(next)-1; a < b; a, b = a+1, b-1 {
			next[a], next[b] = next[b], next[a]
		}
		perms = append(perms, next)
	}
	for _, order := range perms {
		w := listed(&tab)
		kid := &World{}
		tab.addBlock(w, []*World{kid})
		events := []func(){
			func() { tab.setFate(w, fateEliminated) },
			func() { tab.unlist(w) },
			func() { tab.dropBucket(w.pid) },
			func() { tab.setFate(kid, fateFailed) },
		}
		for n, e := range order {
			if tab.rec(w.pid) != w {
				t.Fatalf("order %v: released after %d events", order, n)
			}
			events[e]()
		}
		if tab.rec(w.pid) != nil {
			t.Fatalf("order %v: the record outlived all four events", order)
		}
		if tab.fate(w.pid) != fateEliminated {
			t.Fatalf("order %v: fate %v after release, want eliminated", order, tab.fate(w.pid))
		}
	}
}
