package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"altrun/internal/ids"
	"altrun/internal/msg"
)

// Contended-sink-page tests: several alternatives read and write the
// SAME server pages through the message layer under real goroutine
// concurrency (run with -race). The invariants under test are the
// paper's §3.4.2 guarantees: at most one alternative commits, the
// surviving page image holds exactly the winner's writes (losers are
// never observable), and the commit-time contradiction cascade
// terminates — every contradicted store copy is eliminated in bounded
// time.

// pageKeys contended pages plus one reserved winner-stamp page.
const (
	pageKeys   = 4
	winnerPage = pageKeys
)

type (
	pageWrite struct {
		Key int
		Val uint64
	}
	pageRead struct {
		Key   int
		Seq   uint64
		Reply ids.PID
	}
	pageReadReply struct {
		Seq uint64
		Val uint64
	}
)

// pageServer holds pageKeys+1 uint64 pages in its world space.
func pageServer(t *testing.T) Handler {
	return func(w *World, m msg.Message) {
		switch op := m.Data.(type) {
		case pageWrite:
			if err := w.WriteUint64(int64(op.Key)*8, op.Val); err != nil {
				handlerErr(t, "page write", err)
			}
		case pageRead:
			v, err := w.ReadUint64(int64(op.Key) * 8)
			if err != nil {
				handlerErr(t, "page read", err)
				return
			}
			// The reply fails if the asker was eliminated meanwhile.
			_ = w.Send(op.Reply, pageReadReply{Seq: op.Seq, Val: v})
		}
	}
}

var pageSeq atomic.Uint64

// readPage round-trips one page through the store copy consistent with
// w. Exactly one live copy's assumptions are compatible with the
// reader, so exactly one reply can arrive.
func readPage(w *World, srv ids.PID, key int, timeout time.Duration) (uint64, error) {
	seq := pageSeq.Add(1)
	if err := w.Send(srv, pageRead{Key: key, Seq: seq, Reply: w.PID()}); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(timeout)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return 0, fmt.Errorf("read page %d: reply timed out", key)
		}
		m, ok := w.Recv(remain)
		if !ok {
			return 0, fmt.Errorf("read page %d: reply timed out", key)
		}
		if r, isReply := m.Data.(pageReadReply); isReply && r.Seq == seq {
			return r.Val, nil
		}
	}
}

// altTag is the value alternative alt writes in round to page key —
// unique across (round, alt, key), so any surviving loser byte is
// attributable.
func altTag(round, alt, key int) uint64 {
	return uint64(round)*1_000_000 + uint64(alt+1)*1_000 + uint64(key)
}

// runContendedBlock races n alternatives over the server's pages: each
// writes its tag to every page (all alternatives touch ALL pages —
// maximal overlap), reads one back to force a predicate-carrying round
// trip through its own split copy, then stamps the winner page.
func runContendedBlock(t *testing.T, root *World, srv ids.PID, round, n int) Result {
	t.Helper()
	alts := make([]Alt, n)
	for i := 0; i < n; i++ {
		alt := i
		alts[i] = Alt{
			Name: fmt.Sprintf("writer-%d", alt),
			Body: func(cw *World) error {
				for k := 0; k < pageKeys; k++ {
					if err := cw.Send(srv, pageWrite{Key: k, Val: altTag(round, alt, k)}); err != nil {
						return err
					}
				}
				// Read-your-writes through the copy that assumed us: a
				// sibling's value here would be an observable loser.
				got, err := readPage(cw, srv, alt%pageKeys, 5*time.Second)
				if err != nil {
					return err
				}
				if want := altTag(round, alt, alt%pageKeys); got != want {
					return fmt.Errorf("alt %d read %d, want own write %d", alt, got, want)
				}
				return cw.Send(srv, pageWrite{Key: winnerPage, Val: uint64(alt) + 1})
			},
		}
	}
	res, err := root.RunAlt(Options{SyncElimination: true}, alts...)
	if err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
	return res
}

// checkWinnerImage reads the settled page image from root and verifies
// no-observable-losers: the stamp names the committed alternative and
// every contended page holds exactly that alternative's write.
func checkWinnerImage(t *testing.T, root *World, srv ids.PID, round, n, winner int) {
	t.Helper()
	stamp, err := readPage(root, srv, winnerPage, 5*time.Second)
	if err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
	if stamp == 0 || stamp > uint64(n) {
		t.Fatalf("round %d: winner stamp %d out of range [1,%d] — not exactly one commit", round, stamp, n)
	}
	if int(stamp)-1 != winner {
		t.Fatalf("round %d: store stamp names alt %d, block committed alt %d", round, stamp-1, winner)
	}
	for k := 0; k < pageKeys; k++ {
		got, err := readPage(root, srv, k, 5*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if want := altTag(round, winner, k); got != want {
			t.Fatalf("round %d page %d: holds %d, want winner's %d — a loser's write survived",
				round, k, got, want)
		}
	}
}

// settleToOneCopy waits for the contradiction cascade to finish: every
// copy whose assumptions were contradicted by the commit must be
// eliminated, leaving exactly one.
func settleToOneCopy(t *testing.T, rt *Runtime, srv ids.PID, label string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(rt.Copies(srv)) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: contradiction cascade never terminated: %d copies still live",
				label, len(rt.Copies(srv)))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRealContendedPagesWinnerImage is the core no-observable-losers /
// at-most-one-commit test: three rounds of four alternatives, all
// writing all pages of one shared store.
func TestRealContendedPagesWinnerImage(t *testing.T) {
	rt := realRT(t)
	srv := rt.SpawnServer("pages", (pageKeys+1)*8, pageServer(t))
	root, err := rt.NewRootWorld("main", 64)
	if err != nil {
		t.Fatal(err)
	}
	const alts = 4
	for round := 1; round <= 3; round++ {
		res := runContendedBlock(t, root, srv.PID(), round, alts)
		settleToOneCopy(t, rt, srv.PID(), fmt.Sprintf("round %d", round))
		checkWinnerImage(t, root, srv.PID(), round, alts, res.Index)
	}
	if st := rt.MsgStats(); st.Splits == 0 || st.Ignored == 0 {
		t.Fatalf("contended rounds drove no split/ignore traffic: %+v", st)
	}
	if rt.SelStats().Eliminations == 0 {
		t.Fatal("commits eliminated no contradicted copies")
	}
	for _, cw := range rt.Copies(srv.PID()) {
		rt.Shutdown(cw)
	}
	rt.Wait()
}

// TestRealCascadeAcrossTwoStores chains the contradiction cascade
// through two independent servers: each alternative messages both, so
// one commit must eliminate the contradicted copies of BOTH stores,
// and both surviving images must agree on the same winner.
func TestRealCascadeAcrossTwoStores(t *testing.T) {
	rt := realRT(t)
	a := rt.SpawnServer("store-a", 64, pageServer(t))
	b := rt.SpawnServer("store-b", 64, pageServer(t))
	root, err := rt.NewRootWorld("main", 64)
	if err != nil {
		t.Fatal(err)
	}
	const alts = 3
	altList := make([]Alt, alts)
	for i := 0; i < alts; i++ {
		alt := i
		altList[i] = Alt{
			Name: fmt.Sprintf("dual-%d", alt),
			Body: func(cw *World) error {
				for _, srv := range []ids.PID{a.PID(), b.PID()} {
					if err := cw.Send(srv, pageWrite{Key: 0, Val: uint64(alt) + 1}); err != nil {
						return err
					}
					got, err := readPage(cw, srv, 0, 5*time.Second)
					if err != nil {
						return err
					}
					if got != uint64(alt)+1 {
						return fmt.Errorf("alt %d read %d from %v, want own write", alt, got, srv)
					}
				}
				return nil
			},
		}
	}
	res, err := root.RunAlt(Options{SyncElimination: true}, altList...)
	if err != nil {
		t.Fatal(err)
	}
	settleToOneCopy(t, rt, a.PID(), "store-a")
	settleToOneCopy(t, rt, b.PID(), "store-b")
	for _, srv := range []ids.PID{a.PID(), b.PID()} {
		got, err := readPage(root, srv, 0, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(res.Index)+1 {
			t.Fatalf("store %v settled on %d, committed winner is %d", srv, got, res.Index+1)
		}
	}
	if rt.SelStats().Eliminations == 0 {
		t.Fatal("cross-store commit eliminated nothing")
	}
	for _, srv := range []ids.PID{a.PID(), b.PID()} {
		for _, cw := range rt.Copies(srv) {
			rt.Shutdown(cw)
		}
	}
	rt.Wait()
}
