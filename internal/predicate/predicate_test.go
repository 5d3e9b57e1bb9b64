package predicate

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"altrun/internal/ids"
)

func pid(n int64) ids.PID { return ids.PID(n) }

func mustSet(t *testing.T, must, cant []int64) *Set {
	t.Helper()
	s := New()
	for _, p := range must {
		if err := s.RequireComplete(pid(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range cant {
		if err := s.RequireFail(pid(p)); err != nil {
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
}

func TestContradictionOnAdd(t *testing.T) {
	s := mustSet(t, []int64{1}, nil)
	err := s.RequireFail(pid(1))
	var ce *ContradictionError
	if !errors.As(err, &ce) || ce.PID != pid(1) {
		t.Fatalf("want ContradictionError{1}, got %v", err)
	}
	s2 := mustSet(t, nil, []int64{2})
	if err := s2.RequireComplete(pid(2)); err == nil {
		t.Fatal("must-after-cant must fail")
	}
}

func TestIdempotentRequire(t *testing.T) {
	s := New()
	for i := 0; i < 3; i++ {
		if err := s.RequireComplete(pid(7)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestCloneIndependence(t *testing.T) {
	s := mustSet(t, []int64{1}, []int64{2})
	c := s.Clone()
	if err := c.RequireComplete(pid(9)); err != nil {
		t.Fatal(err)
	}
	if s.MustComplete(pid(9)) {
		t.Fatal("clone write leaked to original")
	}
	if !c.Implies(s) {
		t.Fatal("clone+extra must imply original")
	}
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
	if got := s.ResolveComplete(pid(1)); got != Simplified {
		t.Fatalf("resolve must(1) complete = %v, want Simplified", got)
	}
	if s.MustComplete(pid(1)) {
		t.Fatal("satisfied assumption must be removed")
	}
	if got := s.ResolveComplete(pid(2)); got != Contradicted {
		t.Fatalf("resolve cant(2) complete = %v, want Contradicted", got)
	}
	if got := s.ResolveComplete(pid(99)); got != Unaffected {
		t.Fatalf("resolve unknown = %v, want Unaffected", got)
	}
}

func TestResolveFail(t *testing.T) {
	s := mustSet(t, []int64{1}, []int64{2})
	if got := s.ResolveFail(pid(2)); got != Simplified {
		t.Fatalf("resolve cant(2) fail = %v, want Simplified", got)
	}
	if got := s.ResolveFail(pid(1)); got != Contradicted {
		t.Fatalf("resolve must(1) fail = %v, want Contradicted", got)
	}
	if got := s.ResolveFail(pid(99)); got != Unaffected {
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

// Property: Decide is exhaustive and consistent — for random sets it
// returns Accept iff Implies, Ignore iff conflicts (and not implies),
// else Split; and Union(r,s) succeeds exactly when they don't conflict.
func TestDecideConsistency(t *testing.T) {
	build := func(bits []uint8) *Set {
		s := New()
		for i, b := range bits {
			p := pid(int64(i%6) + 1)
			switch b % 3 {
			case 1:
				if !s.CantComplete(p) {
					_ = s.RequireComplete(p)
				}
			case 2:
				if !s.MustComplete(p) {
					_ = s.RequireFail(p)
				}
			}
		}
		return s
	}
	f := func(rb, sb []uint8) bool {
		r, s := build(rb), build(sb)
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

// Property: resolving every assumption of a set (completes for must,
// fails for cant) simplifies it to empty without contradiction.
func TestFullResolutionEmpties(t *testing.T) {
	f := func(musts, cants []uint8) bool {
		s := New()
		for _, m := range musts {
			p := pid(int64(m%10) + 1)
			if !s.CantComplete(p) {
				_ = s.RequireComplete(p)
			}
		}
		for _, c := range cants {
			p := pid(int64(c%10) + 11)
			_ = s.RequireFail(p)
		}
		for _, p := range s.MustList() {
			if s.ResolveComplete(p) == Contradicted {
				return false
			}
		}
		for _, p := range s.CantList() {
			if s.ResolveFail(p) == Contradicted {
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
	// Resolution shrinks what a fresh append reports.
	s.ResolveComplete(pid(1))
	if got := s.AppendPIDs(nil); len(got) != 2 {
		t.Fatalf("after resolve, appended %v, want 2 PIDs", got)
	}
}
