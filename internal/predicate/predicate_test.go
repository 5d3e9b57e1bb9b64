package predicate

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"altrun/internal/ids"
)

func pid(n int64) ids.PID { return ids.PID(n) }

func mustSet(t *testing.T, must, cant []int64) *Set {
	t.Helper()
	s := New()
	var err error
	for _, p := range must {
		if s, err = s.WithComplete(pid(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range cant {
		if s, err = s.WithFail(pid(p)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestEmptySet(t *testing.T) {
	s := New()
	if s.Unresolved() {
		t.Fatal("empty set has no outstanding assumptions")
	}
	if s.Len() != 0 {
		t.Fatal("empty set len 0")
	}
	if !s.Implies(New()) {
		t.Fatal("empty implies empty")
	}
	var zero Set
	if zero.Unresolved() || !zero.Implies(s) || !s.Implies(&zero) {
		t.Fatal("the zero Set is the empty set")
	}
}

func TestRequireAndQuery(t *testing.T) {
	s := mustSet(t, []int64{1, 2}, []int64{3})
	if !s.MustComplete(pid(1)) || !s.MustComplete(pid(2)) || !s.CantComplete(pid(3)) {
		t.Fatal("assumptions not recorded")
	}
	if s.MustComplete(pid(3)) || s.CantComplete(pid(1)) {
		t.Fatal("wrong-list hits")
	}
	if s.Len() != 3 || !s.Unresolved() {
		t.Fatal("Len/Unresolved wrong")
	}
	multi, err := New().WithFail(pid(9), pid(4), pid(9), pid(6))
	if err != nil {
		t.Fatal(err)
	}
	if got := multi.CantList(); !slices.Equal(got, []ids.PID{4, 6, 9}) {
		t.Fatalf("WithFail(9,4,9,6) lists %v, want [p4 p6 p9]", got)
	}
}

func TestContradictionOnAdd(t *testing.T) {
	s := mustSet(t, []int64{1}, nil)
	_, err := s.WithFail(pid(7), pid(1))
	var ce *ContradictionError
	if !errors.As(err, &ce) || ce.PID != pid(1) {
		t.Fatalf("want ContradictionError{1}, got %v", err)
	}
	s2 := mustSet(t, nil, []int64{2})
	if _, err := s2.WithComplete(pid(2)); err == nil {
		t.Fatal("must-after-cant must fail")
	}
}

func TestIdempotentRequire(t *testing.T) {
	s := mustSet(t, []int64{7}, []int64{8})
	again, err := s.WithComplete(pid(7))
	if err != nil {
		t.Fatal(err)
	}
	if again != s {
		t.Fatal("re-adding a held assumption must return the receiver itself")
	}
	again, err = s.WithFail(pid(8), pid(8))
	if err != nil {
		t.Fatal(err)
	}
	if again != s || s.Len() != 2 {
		t.Fatalf("re-adding held can't-assumptions changed the set: %v", again)
	}
}

// TestDerivationsLeaveReceiverUnchanged is the immutability contract:
// every derivation returns its result and leaves its receiver (and any
// argument set) listing exactly what it listed before.
func TestDerivationsLeaveReceiverUnchanged(t *testing.T) {
	s := mustSet(t, []int64{1, 5}, []int64{2, 6})
	other := mustSet(t, []int64{3}, []int64{4})
	wantMust, wantCant := s.MustList(), s.CantList()
	otherMust, otherCant := other.MustList(), other.CantList()
	check := func(op string) {
		t.Helper()
		if !slices.Equal(s.MustList(), wantMust) || !slices.Equal(s.CantList(), wantCant) {
			t.Fatalf("%s mutated its receiver: %v", op, s)
		}
		if !slices.Equal(other.MustList(), otherMust) || !slices.Equal(other.CantList(), otherCant) {
			t.Fatalf("%s mutated its argument: %v", op, other)
		}
	}
	if d, err := s.WithComplete(pid(9)); err != nil || !d.MustComplete(pid(9)) || !d.Implies(s) {
		t.Fatalf("WithComplete(9) = %v, %v", d, err)
	}
	check("WithComplete")
	if d, err := s.WithFail(pid(9), pid(3)); err != nil || !d.CantComplete(pid(3)) || !d.Implies(s) {
		t.Fatalf("WithFail(9,3) = %v, %v", d, err)
	}
	check("WithFail")
	if _, err := s.WithFail(pid(1)); err == nil {
		t.Fatal("WithFail(1) on must(1) must fail")
	}
	check("a contradicted WithFail")
	if u, err := s.Union(other); err != nil || !u.Implies(s) || !u.Implies(other) {
		t.Fatalf("Union = %v, %v", u, err)
	}
	check("Union")
	for _, r := range []struct {
		p         int64
		completed bool
		want      Outcome
	}{{1, true, Simplified}, {2, false, Simplified}, {1, false, Contradicted}, {2, true, Contradicted}, {99, true, Unaffected}} {
		if d, got := s.Resolve(pid(r.p), r.completed); got != r.want || (got != Simplified && d != s) {
			t.Fatalf("Resolve(%d, %v) = %v, %v", r.p, r.completed, d, got)
		}
		check("Resolve")
	}
	if _, _, err := SplitWorlds(s, other, pid(7)); err != nil {
		t.Fatal(err)
	}
	check("SplitWorlds")
	_ = s.AppendPIDs(nil)
	mustList := s.MustList()
	mustList[0] = pid(42)
	check("writing into MustList's result")
}

func TestImplies(t *testing.T) {
	r := mustSet(t, []int64{1, 2}, []int64{3})
	sub := mustSet(t, []int64{1}, []int64{3})
	if !r.Implies(sub) {
		t.Fatal("superset must imply subset")
	}
	if sub.Implies(r) {
		t.Fatal("subset must not imply superset")
	}
	other := mustSet(t, []int64{4}, nil)
	if r.Implies(other) {
		t.Fatal("disjoint must not imply")
	}
	// must vs cant are different assumptions about the same PID.
	mc := mustSet(t, []int64{3}, nil)
	if r.Implies(mc) {
		t.Fatal("cant(3) does not imply must(3)")
	}
}

func TestConflictsWith(t *testing.T) {
	r := mustSet(t, []int64{1}, []int64{2})
	if !r.ConflictsWith(mustSet(t, []int64{2}, nil)) {
		t.Fatal("must(2) conflicts with cant(2)")
	}
	if !r.ConflictsWith(mustSet(t, nil, []int64{1})) {
		t.Fatal("cant(1) conflicts with must(1)")
	}
	if r.ConflictsWith(mustSet(t, []int64{1}, []int64{2})) {
		t.Fatal("identical sets do not conflict")
	}
	if r.ConflictsWith(mustSet(t, []int64{5}, []int64{6})) {
		t.Fatal("disjoint sets do not conflict")
	}
}

func TestUnion(t *testing.T) {
	a := mustSet(t, []int64{1}, []int64{2})
	b := mustSet(t, []int64{3}, []int64{4})
	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Implies(a) || !u.Implies(b) {
		t.Fatal("union must imply both operands")
	}
	if a.MustComplete(pid(3)) {
		t.Fatal("union must not mutate receiver")
	}
	// Contradictory union fails.
	c := mustSet(t, []int64{2}, nil) // conflicts with a's cant(2)
	if _, err := a.Union(c); err == nil {
		t.Fatal("contradictory union must fail")
	}
}

func TestResolveComplete(t *testing.T) {
	s := mustSet(t, []int64{1}, []int64{2})
	r, got := s.Resolve(pid(1), true)
	if got != Simplified {
		t.Fatalf("resolve must(1) complete = %v, want Simplified", got)
	}
	if r.MustComplete(pid(1)) || !r.CantComplete(pid(2)) {
		t.Fatalf("satisfied assumption must be removed, the rest kept: %v", r)
	}
	if !s.MustComplete(pid(1)) {
		t.Fatal("resolution must not edit the set it resolves")
	}
	if _, got := r.Resolve(pid(2), true); got != Contradicted {
		t.Fatalf("resolve cant(2) complete = %v, want Contradicted", got)
	}
	if same, got := r.Resolve(pid(99), true); got != Unaffected || same != r {
		t.Fatalf("resolve unknown = %v, want Unaffected on the same set", got)
	}
}

func TestResolveFail(t *testing.T) {
	s := mustSet(t, []int64{1}, []int64{2})
	r, got := s.Resolve(pid(2), false)
	if got != Simplified || r.CantComplete(pid(2)) {
		t.Fatalf("resolve cant(2) fail = %v (%v), want Simplified", got, r)
	}
	if same, got := r.Resolve(pid(1), false); got != Contradicted || same != r {
		t.Fatalf("resolve must(1) fail = %v, want Contradicted on the same set", got)
	}
	if _, got := r.Resolve(pid(99), false); got != Unaffected {
		t.Fatalf("resolve unknown fail = %v", got)
	}
}

func TestDecide(t *testing.T) {
	tests := []struct {
		name     string
		receiver *Set
		sender   *Set
		want     Decision
	}{
		{"both empty", New(), New(), Accept},
		{"sender empty", mustSet(t, []int64{1}, nil), New(), Accept},
		{"receiver implies", mustSet(t, []int64{1, 2}, nil), mustSet(t, []int64{1}, nil), Accept},
		{"conflict must-vs-cant", mustSet(t, nil, []int64{1}), mustSet(t, []int64{1}, nil), Ignore},
		{"conflict cant-vs-must", mustSet(t, []int64{1}, nil), mustSet(t, nil, []int64{1}), Ignore},
		{"new assumptions", New(), mustSet(t, []int64{1}, nil), Split},
		{"partial overlap", mustSet(t, []int64{1}, nil), mustSet(t, []int64{1, 2}, nil), Split},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Decide(tt.receiver, tt.sender); got != tt.want {
				t.Errorf("Decide = %v, want %v", got, tt.want)
			}
		})
	}
	shared := mustSet(t, []int64{1, 2}, []int64{3})
	if got := Decide(shared, shared); got != Accept {
		t.Fatalf("Decide(s, s) = %v, want Accept", got)
	}
}

func TestSplitWorlds(t *testing.T) {
	r := mustSet(t, []int64{10}, nil)
	s := mustSet(t, []int64{1}, []int64{2})
	sender := pid(5)
	assume, deny, err := SplitWorlds(r, s, sender)
	if err != nil {
		t.Fatal(err)
	}
	// Assume-world: receiver's + sender's + sender completes.
	if !assume.Implies(r) || !assume.Implies(s) || !assume.MustComplete(sender) {
		t.Fatalf("assume-world wrong: %v", assume)
	}
	// Deny-world: receiver's + sender can't complete, and nothing of S.
	if !deny.Implies(r) || !deny.CantComplete(sender) {
		t.Fatalf("deny-world wrong: %v", deny)
	}
	if deny.MustComplete(pid(1)) || deny.CantComplete(pid(2)) {
		t.Fatal("deny-world must not inherit sender's assumptions (fn. 3)")
	}
	// The two worlds are mutually exclusive.
	if !assume.ConflictsWith(deny) {
		t.Fatal("assume and deny worlds must conflict")
	}
	// Original receiver untouched.
	if r.Len() != 1 {
		t.Fatal("SplitWorlds must not mutate the receiver")
	}
}

func TestSplitWorldsContradiction(t *testing.T) {
	r := mustSet(t, nil, []int64{1})
	s := mustSet(t, []int64{1}, nil) // sender assumes 1 completes
	if _, _, err := SplitWorlds(r, s, pid(5)); err == nil {
		t.Fatal("conflicting split must error (caller should have Ignored)")
	}
	// Receiver already assumes the sender itself fails.
	r2 := mustSet(t, nil, []int64{5})
	if _, _, err := SplitWorlds(r2, New(), pid(5)); err == nil {
		t.Fatal("assume-world contradiction on sender PID must error")
	}
}

func TestStringRendering(t *testing.T) {
	s := mustSet(t, []int64{2, 1}, []int64{3})
	str := s.String()
	if !strings.Contains(str, "p1,p2") || !strings.Contains(str, "cant:p3") {
		t.Fatalf("String = %q", str)
	}
	if got := New().String(); got != "{must: cant:}" {
		t.Fatalf("empty String = %q", got)
	}
	for _, o := range []Outcome{Unaffected, Simplified, Contradicted, Outcome(99)} {
		if o.String() == "" {
			t.Fatal("Outcome.String empty")
		}
	}
	for _, d := range []Decision{Accept, Ignore, Split, Decision(99)} {
		if d.String() == "" {
			t.Fatal("Decision.String empty")
		}
	}
}

// buildSet turns random bytes into a consistent set over PIDs 1..6:
// b%3 == 1 assumes completion, 2 failure, 0 nothing (a PID keeps its
// first assumption).
func buildSet(bits []uint8) *Set {
	s := New()
	for i, b := range bits {
		p := pid(int64(i%6) + 1)
		switch b % 3 {
		case 1:
			if !s.CantComplete(p) {
				s, _ = s.WithComplete(p)
			}
		case 2:
			if !s.MustComplete(p) {
				s, _ = s.WithFail(p)
			}
		}
	}
	return s
}

// Property: Decide is exhaustive and consistent — for random sets it
// returns Accept iff Implies, Ignore iff conflicts (and not implies),
// else Split; and Union(r,s) succeeds exactly when they don't conflict.
func TestDecideConsistency(t *testing.T) {
	f := func(rb, sb []uint8) bool {
		r, s := buildSet(rb), buildSet(sb)
		d := Decide(r, s)
		switch d {
		case Accept:
			return r.Implies(s)
		case Ignore:
			return r.ConflictsWith(s) && !r.Implies(s)
		case Split:
			if r.Implies(s) || r.ConflictsWith(s) {
				return false
			}
			_, err := r.Union(s)
			return err == nil
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the sorted-list representation answers exactly what the
// paper's two PID sets do — checked against a map model for Implies,
// ConflictsWith, Union and every Resolve.
func TestSetsMatchMapModel(t *testing.T) {
	type model struct{ must, cant map[ids.PID]bool }
	toModel := func(s *Set) model {
		m := model{map[ids.PID]bool{}, map[ids.PID]bool{}}
		for _, p := range s.MustList() {
			m.must[p] = true
		}
		for _, p := range s.CantList() {
			m.cant[p] = true
		}
		return m
	}
	sub := func(a, b map[ids.PID]bool) bool {
		for p := range a {
			if !b[p] {
				return false
			}
		}
		return true
	}
	meets := func(a, b map[ids.PID]bool) bool {
		for p := range a {
			if b[p] {
				return true
			}
		}
		return false
	}
	f := func(rb, sb []uint8, q uint8, completed bool) bool {
		r, s := buildSet(rb), buildSet(sb)
		mr, ms := toModel(r), toModel(s)
		if r.Implies(s) != (sub(ms.must, mr.must) && sub(ms.cant, mr.cant)) {
			return false
		}
		conflict := meets(mr.must, ms.cant) || meets(mr.cant, ms.must)
		if r.ConflictsWith(s) != conflict {
			return false
		}
		u, err := r.Union(s)
		if (err != nil) != conflict {
			return false
		}
		if err == nil {
			mu := toModel(u)
			if !maps.Equal(mu.must, union(mr.must, ms.must)) || !maps.Equal(mu.cant, union(mr.cant, ms.cant)) {
				return false
			}
		}
		p := pid(int64(q%7) + 1)
		d, out := r.Resolve(p, completed)
		holds, denied := mr.must, mr.cant
		if !completed {
			holds, denied = mr.cant, mr.must
		}
		switch {
		case denied[p]:
			return out == Contradicted && d == r
		case holds[p]:
			return out == Simplified && d.Len() == r.Len()-1 && !d.MustComplete(p) && !d.CantComplete(p) && r.Implies(d)
		default:
			return out == Unaffected && d == r
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func union(a, b map[ids.PID]bool) map[ids.PID]bool {
	out := map[ids.PID]bool{}
	for p := range a {
		out[p] = true
	}
	for p := range b {
		out[p] = true
	}
	return out
}

// Property: resolving every assumption of a set (completes for must,
// fails for cant) simplifies it to empty without contradiction.
func TestFullResolutionEmpties(t *testing.T) {
	f := func(musts, cants []uint8) bool {
		s := New()
		for _, m := range musts {
			p := pid(int64(m%10) + 1)
			s, _ = s.WithComplete(p)
		}
		for _, c := range cants {
			p := pid(int64(c%10) + 11)
			s, _ = s.WithFail(p)
		}
		var out Outcome
		for _, p := range s.MustList() {
			if s, out = s.Resolve(p, true); out == Contradicted {
				return false
			}
		}
		for _, p := range s.CantList() {
			if s, out = s.Resolve(p, false); out == Contradicted {
				return false
			}
		}
		return !s.Unresolved()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAppendPIDs(t *testing.T) {
	if got := New().AppendPIDs(nil); len(got) != 0 {
		t.Fatalf("empty set appended %v", got)
	}
	s := mustSet(t, []int64{1, 2}, []int64{3})
	got := s.AppendPIDs(nil)
	if len(got) != 3 {
		t.Fatalf("appended %v, want 3 PIDs", got)
	}
	seen := map[ids.PID]bool{}
	for _, p := range got {
		seen[p] = true
	}
	if !seen[pid(1)] || !seen[pid(2)] || !seen[pid(3)] {
		t.Fatalf("appended %v, want {1,2,3}", got)
	}
	// Append semantics: the buffer prefix survives.
	buf := []ids.PID{pid(99)}
	buf = s.AppendPIDs(buf)
	if len(buf) != 4 || buf[0] != pid(99) {
		t.Fatalf("AppendPIDs clobbered the buffer: %v", buf)
	}
	// Resolution shrinks what a fresh append of the derived set reports.
	r, _ := s.Resolve(pid(1), true)
	if got := r.AppendPIDs(nil); len(got) != 2 {
		t.Fatalf("after resolve, appended %v, want 2 PIDs", got)
	}
}
